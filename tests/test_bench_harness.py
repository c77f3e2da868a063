"""Benchmark harness: report rendering and the cheap experiment drivers.

The expensive drivers run under ``benchmarks/``; here we verify the
harness machinery itself plus the drivers that complete in well under a
second, so `pytest tests/` exercises the full module surface.
"""

from repro.bench import (
    ablation_d_high,
    ablation_rebalance,
    fig6_workload_balance,
    fig7_comm_balance,
    format_value,
    render_series,
    render_table,
    table1,
)


class TestRenderTable:
    def test_basic_layout(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = render_table(rows, title="T")
        lines = text.split("\n")
        assert lines[0] == "T"
        assert lines[1].startswith("a")
        assert len(lines) == 5
        # columns align
        assert lines[3].index("x") == lines[4].index("yy")

    def test_column_order_override(self):
        rows = [{"a": 1, "b": 2}]
        text = render_table(rows, columns=["b", "a"])
        assert text.split("\n")[0].startswith("b")

    def test_empty_rows(self):
        assert "(no rows)" in render_table([], title="T")

    def test_missing_cell_blank(self):
        text = render_table([{"a": 1}, {"a": 2, "b": 3}],
                            columns=["a", "b"])
        assert "3" in text


class TestFormatValue:
    def test_floats(self):
        assert format_value(0.123456) == "0.1235"
        assert format_value(1234.5) == "1.234e+03"
        assert format_value(float("nan")) == "-"
        assert format_value(0.0) == "0"

    def test_large_ints_commas(self):
        assert format_value(1234567) == "1,234,567"
        assert format_value(99) == "99"

    def test_bool_passthrough(self):
        assert format_value(True) == "True"


class TestRenderSeries:
    def test_pairs(self):
        text = render_series("s", [1, 2], [0.5, 0.25], xlabel="p",
                             ylabel="t")
        assert "s" in text and "[p -> t]" in text
        assert "0.5" in text and "0.25" in text


class TestCheapDrivers:
    def test_table1_has_nine_rows(self):
        out = table1(scale=0.25)
        assert len(out["rows"]) == 9
        assert "Table 1" in out["text"]

    def test_fig6_rows_and_per_rank(self):
        out = fig6_workload_balance(("uk2005",), nranks=8, scale=0.2)
        assert len(out["rows"]) == 1
        assert len(out["per_rank"]["uk2005"]["delegate"]) == 8
        row = out["rows"][0]
        assert row["del_imbal"] <= row["1d_imbal"] + 1e-9

    def test_fig7_improvement_positive(self):
        out = fig7_comm_balance(("uk2007",), nranks=8, scale=0.2)
        assert out["rows"][0]["max_ratio"] > 1.0

    def test_ablation_rebalance_rows(self):
        out = ablation_rebalance("uk2005", nranks=8, scale=0.3)
        rows = {r["rebalance"]: r for r in out["rows"]}
        assert rows[True]["imbalance"] <= rows[False]["imbalance"] + 1e-9

    def test_ablation_d_high_monotone_hubs(self):
        out = ablation_d_high("uk2005", nranks=8, scale=0.3,
                              thresholds=(4, 64, 1 << 30))
        hubs = [r["num_hubs"] for r in out["rows"]]
        assert hubs[0] >= hubs[1] >= hubs[2] == 0
