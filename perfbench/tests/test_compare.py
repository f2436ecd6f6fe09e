"""compare.py refuses other hosts and flags slower layers."""

import compare

HOST = {"cpus": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
        "native": "available", "REPRO_NATIVE": None}


def _record(host=HOST, box_sum=1.0, commit="a"):
    return {"workload": "pair_luis128", "trace": True, "host": dict(host),
            "provenance": {"commit": commit}, "e2e": {"main_p50_s": 3.0},
            "layers": {"kernels.box_sum_s": box_sum, "core.ge_solves": 10.0},
            "extra": {"layer_self_s": {"core.merge": 0.1}}}


def test_layer_more_than_ten_percent_slower_is_flagged():
    lines = []
    status = compare.compare([_record(), _record(box_sum=1.2, commit="b")], out=lines.append)
    assert status == 1
    assert any("flagged: kernels.box_sum_s" in line for line in lines)


def test_small_change_is_not_flagged():
    assert compare.compare([_record(), _record(box_sum=1.05)], out=lambda _: None) == 0


def test_records_from_another_host_are_refused():
    other = dict(HOST, cpus=8)
    lines = []
    status = compare.compare([_record(box_sum=1.2, host=other)], base=[_record()],
                             out=lines.append)
    assert status == 2
    assert any("REFUSED" in line and "cpus: 2 -> 8" in line for line in lines)


def test_the_previous_record_from_the_same_host_is_used():
    other = dict(HOST, numpy="2.0.0")
    records = [_record(box_sum=1.0), _record(box_sum=5.0, host=other), _record(box_sum=1.2)]
    lines = []
    assert compare.compare(records, out=lines.append) == 1
    assert any("1 ->" in line and "kernels.box_sum_s" in line for line in lines)
