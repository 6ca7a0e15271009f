"""The A/B pair summariser of ``tools/perf_pairs.py``, on canned result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "perf_pairs.py"
_SPEC = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)

METRICS = [
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _line(throughput, p50, failed=0):
    return json.dumps({"correct": True, "attempted": 100, "failed": failed, "metrics": {
        "throughput_per_s": {"value": throughput, "unit": "1/s"},
        "latency_ms_p50": {"value": p50, "unit": "ms"},
    }})


def _pairs(base, change):
    return [(seed, perf_pairs.parse_result(b), perf_pairs.parse_result(c))
            for seed, (b, c) in enumerate(zip(base, change), start=1)]


class TestParse:
    def test_result_is_the_last_line(self):
        stdout = '{"workload": "train-d2stgnn"}\n' + _line(80.0, 400.0) + "\n\n"
        assert perf_pairs.parse_result(stdout)["metrics"]["throughput_per_s"]["value"] == 80.0

    @pytest.mark.parametrize("stdout", ["", '{"workload": "x"}\n'])
    def test_missing_result_raises(self, stdout):
        with pytest.raises(ValueError):
            perf_pairs.parse_result(stdout)

    def test_seed_ranges(self):
        assert perf_pairs.parse_seeds("3") == [3]
        assert perf_pairs.parse_seeds("11-14") == [11, 12, 13, 14]
        with pytest.raises(ValueError):
            perf_pairs.parse_seeds("5-4")


class TestSummarise:
    def test_medians_iqr_and_wins_follow_the_declared_direction(self):
        base = [_line(t, p) for t, p in [(70, 430), (72, 420), (74, 410), (76, 400), (78, 390)]]
        change = [_line(t, p) for t, p in [(80, 380), (81, 385), (71, 425), (85, 370), (86, 360)]]
        throughput, p50 = perf_pairs.summarise(_pairs(base, change), METRICS)
        assert throughput["base_median"] == 74 and throughput["change_median"] == 81
        assert throughput["base_iqr"] == pytest.approx(76 - 72)  # numpy's linear quartiles
        assert throughput["won"] == 4 and throughput["pairs"] == 5
        assert not throughput["claim"]  # 4 of 5 is short of nine in ten
        assert p50["base_median"] == 410 and p50["change_median"] == 380
        assert p50["won"] == 4  # lower is better: pair 3 (425 vs 410) lost

    def test_no_claim_from_fewer_than_ten_pairs(self):
        base = [_line(70 + i, 400) for i in range(9)]
        change = [_line(90 + i, 300) for i in range(9)]
        rows = perf_pairs.summarise(_pairs(base, change), METRICS)
        assert [row["won"] for row in rows] == [9, 9]
        assert not any(row["claim"] for row in rows)

    def test_claim_needs_nine_in_ten_and_a_gap_beyond_the_iqr(self):
        base = [_line(70 + i, 400) for i in range(10)]
        wide = [_line(80 + i, 400) for i in range(10)]
        narrow = [_line(72.5 + i, 400) for i in range(10)]
        throughput, p50 = perf_pairs.summarise(_pairs(base, wide), METRICS)
        assert throughput["won"] == 10 and throughput["claim"]
        assert p50["won"] == 0 and not p50["claim"]  # ties win neither side
        (throughput, _) = perf_pairs.summarise(_pairs(base, narrow), METRICS)
        assert throughput["won"] == 10
        assert throughput["base_iqr"] == pytest.approx(4.5)
        assert not throughput["claim"]  # median gap 2.5 is inside the IQR

    def test_no_claim_when_a_larger_share_of_operations_fails(self):
        base = [_line(70 + i, 400, failed=1) for i in range(10)]
        change = [_line(80 + i, 400, failed=2 if i == 0 else 1) for i in range(10)]
        throughput, _ = perf_pairs.summarise(_pairs(base, change), METRICS)
        assert throughput["won"] == 10 and throughput["base_iqr"] < 10
        assert not throughput["claim"]  # 11 of 1000 failed against 10 of 1000
        level = [_line(80 + i, 400, failed=1) for i in range(10)]
        throughput, _ = perf_pairs.summarise(_pairs(base, level), METRICS)
        assert throughput["claim"]

    def test_formatting_names_every_metric_and_the_failures(self):
        pairs = _pairs([_line(70, 430)], [_line(77, 400, failed=2)])
        table = perf_pairs.format_summary(perf_pairs.summarise(pairs, METRICS))
        assert "throughput_per_s" in table and "+10.0%" in table and "1/1" in table
        row = perf_pairs.format_pair(1, "change", pairs[0][1], pairs[0][2],
                                     ["throughput_per_s"])
        assert "70 -> 77" in row and "failed 0/100 -> 2/100" in row
