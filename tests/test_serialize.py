import json

from gapsense import (IirRecord, PointSet, Sensitivity, builtin_dataset,
                      cluster_points, contamination_sweep, breakdown_curve,
                      detect_two_sided, mad_detect)
from gapsense.serialize import (CURVE_CSV_COLUMNS, curves_from_dicts,
                                curves_to_csv, curves_to_dicts,
                                detection_from_dict, detection_to_csv,
                                detection_to_dict, partition_from_dict,
                                partition_to_csv, partition_to_dict, to_json)

SENS = Sensitivity.from_threshold(1.81)


def test_detection_json_roundtrip_with_trace():
    # grubbs1's trace holds records with gap == max_prev, whose ihr is None
    for name, n_undefined in (("venus", 0), ("grubbs1", 2)):
        det = detect_two_sided(builtin_dataset(name), SENS)
        assert sum(r.ihr is None for r in det.trace) == n_undefined
        blob = to_json(detection_to_dict(det))
        back = detection_from_dict(json.loads(blob))
        assert back == det
        assert all(type(r) is IirRecord for r in back.trace)
        assert type(back.border) is IirRecord


def test_detection_json_roundtrip_baseline():
    det = mad_detect(builtin_dataset("grubbs1"))
    assert detection_from_dict(json.loads(to_json(detection_to_dict(det)))) == det


def test_detection_schema_fields():
    det = detect_two_sided(builtin_dataset("cushny"), SENS)
    d = detection_to_dict(det)
    for key in ("method", "params", "outliers", "normal_interval", "trace"):
        assert key in d
    assert d["outliers"] == [4.6]
    assert d["normal_interval"] == [0.0, 2.4]
    assert all({"index", "side", "gap", "max_prev", "er", "ihr", "iir",
                "accepted"} <= set(rec) for rec in d["trace"])


def test_partition_roundtrip():
    pts = PointSet.from_iterable(
        [(0, 0), (1, 0), (0, 1), (1, 1), (50, 50), (51, 50), (50, 51), (51, 51)])
    part = cluster_points(pts, SENS, min_partners=3)
    back = partition_from_dict(json.loads(to_json(partition_to_dict(part))))
    assert back == part


def test_curves_roundtrip_and_csv():
    scenarios = contamination_sweep(n=40, fractions=[0.0, 0.2], reps=5,
                                    master_seed=1)
    points = breakdown_curve(scenarios)
    assert curves_from_dicts(json.loads(to_json(curves_to_dicts(points)))) == points

    csv_text = curves_to_csv(points)
    lines = csv_text.strip().split("\n")
    assert lines[0] == ",".join(CURVE_CSV_COLUMNS)
    assert len(lines) == 1 + 2 * 3  # two sweep points, three methods
    # no-contamination rows leave recall empty
    zero_rows = [ln for ln in lines[1:] if ln.startswith("0,")]
    assert zero_rows and all(ln.endswith(",") for ln in zero_rows)


def test_detection_csv():
    det = detect_two_sided(builtin_dataset("barnett"), SENS)
    lines = detection_to_csv(det).strip().split("\n")
    assert lines[0] == "method,index,value"
    assert lines[1:] == ["iir,5,949", "iir,6,951"]


def test_partition_csv_header():
    pts = PointSet.from_iterable(
        [(0, 0), (1, 0), (0, 1), (1, 1), (50, 50), (51, 50), (50, 51), (51, 51)])
    part = cluster_points(pts, SENS, min_partners=3)
    lines = partition_to_csv(part).strip().split("\n")
    assert lines[0] == "cluster,members,right_count,silent_members,probability"
    assert len(lines) == 1 + part.n_clusters


def test_json_is_lf_terminated():
    assert to_json({"a": 1}).endswith("\n")
    assert "\r" not in curves_to_csv([])
