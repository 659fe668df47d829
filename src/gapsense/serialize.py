"""JSON and CSV serialization for detections, partitions, and curves.

JSON structures round-trip exactly: ``X_from_dict(X_to_dict(x)) == x``.
All file output is UTF-8 with LF line endings.

Detection JSON schema::

    {"method": str, "params": {...}, "outliers": [float],
     "outlier_indices": [int], "normal_interval": [lo, hi] | null,
     "degenerate": bool, "border": record | null, "trace": [record]}

where a record is ``{"index", "side", "gap", "max_prev", "er", "ihr",
"iir", "accepted"}`` with ``ihr`` possibly null.
"""
from __future__ import annotations

import csv
import io
import json
from typing import Any

from .expanding import Detection, IirRecord
from .oscillator import ClusterPartition, ClusterSummary
from .simulate import CurvePoint

CURVE_CSV_COLUMNS = ("x", "method", "detected_pct", "stderr", "recall_pct")


def detection_to_dict(det: Detection) -> dict[str, Any]:
    interval = None
    if det.normal_low is not None and det.normal_high is not None:
        interval = [det.normal_low, det.normal_high]
    return {
        "method": det.method,
        "params": dict(det.params),
        "outliers": list(det.outlier_values),
        "outlier_indices": list(det.outlier_indices),
        "normal_interval": interval,
        "degenerate": det.degenerate,
        "border": None if det.border is None else det.border._asdict(),
        "trace": [r._asdict() for r in det.trace],
    }


def detection_from_dict(d: dict[str, Any]) -> Detection:
    interval = d.get("normal_interval")
    return Detection(
        method=d["method"], params=dict(d["params"]),
        outlier_values=tuple(d["outliers"]),
        outlier_indices=tuple(d["outlier_indices"]),
        normal_low=None if interval is None else interval[0],
        normal_high=None if interval is None else interval[1],
        trace=tuple(IirRecord(**r) for r in d["trace"]),
        border=IirRecord(**d["border"]) if d.get("border") else None,
        degenerate=d.get("degenerate", False),
    )


def partition_to_dict(part: ClusterPartition) -> dict[str, Any]:
    return {
        "labels": list(part.labels),
        "silent_ids": sorted(part.silent_ids),
        "summary": [
            {"cluster": s.cluster_id, "members": list(s.members),
             "right_count": s.right_count,
             "silent_members": list(s.silent_members),
             "probability": s.probability}
            for s in part.summary
        ],
    }


def partition_from_dict(d: dict[str, Any]) -> ClusterPartition:
    return ClusterPartition(
        labels=tuple(d["labels"]),
        silent_ids=frozenset(d["silent_ids"]),
        summary=tuple(
            ClusterSummary(cluster_id=s["cluster"], members=tuple(s["members"]),
                           right_count=s["right_count"],
                           silent_members=tuple(s["silent_members"]),
                           probability=s["probability"])
            for s in d["summary"]),
    )


def curves_to_dicts(points: list[CurvePoint]) -> list[dict[str, Any]]:
    return [{"x": p.x, "detected": dict(p.detected),
             "stderr": dict(p.stderr), "recall": dict(p.recall)}
            for p in points]


def curves_from_dicts(rows: list[dict[str, Any]]) -> list[CurvePoint]:
    return [CurvePoint(x=r["x"], detected=dict(r["detected"]),
                       stderr=dict(r["stderr"]), recall=dict(r["recall"]))
            for r in rows]


def to_json(obj: Any) -> str:
    """Key-stable JSON text, indented by two spaces, with a trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def curves_to_csv(points: list[CurvePoint]) -> str:
    """One row per (x, method); recall_pct is empty without contaminants."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CURVE_CSV_COLUMNS)
    for p in points:
        for method in p.detected:
            rec = p.recall.get(method)
            writer.writerow([f"{p.x:g}", method,
                             f"{p.detected[method]:.6f}",
                             f"{p.stderr[method]:.6f}",
                             "" if rec is None else f"{rec:.6f}"])
    return buf.getvalue()


def detection_to_csv(det: Detection) -> str:
    """One row per flagged value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("method", "index", "value"))
    for idx, val in zip(det.outlier_indices, det.outlier_values):
        writer.writerow([det.method, idx, f"{val:g}"])
    return buf.getvalue()


def partition_to_csv(part: ClusterPartition) -> str:
    """Table-style summary: one row per cluster."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("cluster", "members", "right_count",
                     "silent_members", "probability"))
    for s in part.summary:
        writer.writerow([s.cluster_id,
                         " ".join(str(m) for m in s.members),
                         s.right_count,
                         " ".join(str(m) for m in s.silent_members),
                         f"{s.probability:.4f}"])
    return buf.getvalue()
