from pathlib import Path

import pytest

from superseq import cli
from superseq.scenario import (
    ScenarioError,
    dump_raw_complex,
    load_scenario,
    parse_expression,
    parse_scenario,
)
from superseq.supercech import SheafModel

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(*argv, capsys=None):
    code = cli.main(list(argv))
    return code


class TestExpressions:
    def model(self):
        return SheafModel(coordinate_twists=(-1, -1), even_twists=(0,),
                          odd_twists=(0,), window=2)

    def test_section_expression(self):
        model = self.model()
        kind, value = parse_expression(model, "3/2 x^-1 xi1 xi2 e1")
        assert kind == "sec"
        assert value == model.monomial_section(-1, 0b11, 0, "3/2")

    def test_sums_and_signs(self):
        model = self.model()
        _, value = parse_expression(model, "x e1 - 2 e1 + f1")
        expected = (model.monomial_section(1, 0, 0)
                    + model.monomial_section(0, 0, 0, -2)
                    + model.generator_section(1))
        assert value == expected

    def test_coefficient_expression(self):
        model = self.model()
        kind, value = parse_expression(model, "(1 + x) xi1")
        assert kind == "alg"
        alg = model.algebra
        assert value == alg.monomial(0, 0b01) + alg.monomial(1, 0b01)

    def test_anticommutativity_through_parser(self):
        model = self.model()
        _, a = parse_expression(model, "xi2 xi1 e1")
        _, b = parse_expression(model, "xi1 xi2 e1")
        assert a == b.scale(-1)

    def test_generator_must_be_last(self):
        with pytest.raises(ScenarioError):
            parse_expression(self.model(), "e1 x")

    def test_unknown_token_rejected(self):
        with pytest.raises(ScenarioError):
            parse_expression(self.model(), "y + 1")


class TestScenarioFiles:
    def test_worked_complex_parses(self):
        scenario = load_scenario(SCENARIOS / "worked_complex.scn")
        assert scenario.mode == "raw_complex"
        assert scenario.complex.validate().ok
        assert scenario.complex.dims == (2, 2)

    def test_round_trip(self):
        scenario = load_scenario(SCENARIOS / "worked_complex.scn")
        text = dump_raw_complex(scenario.complex)
        again = parse_scenario(text)
        assert again.complex == scenario.complex

    def test_round_trip_with_parity(self):
        from superseq.spectral import FilteredComplex
        from superseq.linalg import RationalMatrix, Subspace
        complex_ = FilteredComplex(
            dims=[2, 2],
            differentials=[RationalMatrix.from_rows([[0, 0], [1, 0]])],
            filtration={(1, 0): Subspace.from_vectors(2, [(0, 1)]),
                        (1, 1): Subspace.from_vectors(2, [(0, 1)])},
            p_max=2,
            parity=[[0, 1], [0, 1]],
        )
        again = parse_scenario(dump_raw_complex(complex_))
        assert again.complex == complex_
        assert again.complex.parity == complex_.parity

    def test_round_trip_of_sheaf_built_complex(self):
        scenario = load_scenario(SCENARIOS / "order_two.scn")
        from superseq.supercech import build_cech_complex
        complex_ = build_cech_complex(scenario.model)
        again = parse_scenario(dump_raw_complex(complex_))
        assert again.complex == complex_

    def test_unknown_key_rejected(self):
        text = "superseq scenario v1\nmode: raw_complex\np_max: 1\ndims: 1\nfoo: 3\n"
        with pytest.raises(ScenarioError):
            parse_scenario(text)

    def test_missing_header_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("mode: raw_complex\n")

    def test_unknown_block_rejected(self):
        text = ("superseq scenario v1\nmode: super_sheaf\ncoordinate_twists:\n"
                "even_twists: 0\nodd_twists:\nwindow: 2\n\n[mystery]\n1 2\n")
        with pytest.raises(ScenarioError):
            parse_scenario(text)

    def test_super_sheaf_with_cocycle(self):
        scenario = load_scenario(SCENARIOS / "order_two.scn")
        assert scenario.mode == "super_sheaf"
        assert scenario.model.cocycle is not None
        assert scenario.symbol_override is None

    def test_tampered_has_override(self):
        scenario = load_scenario(SCENARIOS / "tampered.scn")
        assert scenario.symbol_override is not None

    def test_shallow_cocycle_rejected_at_parse(self):
        text = ("superseq scenario v1\nmode: super_sheaf\ncoordinate_twists: -1 -1\n"
                "even_twists: 0\nodd_twists: 0\nwindow: 2\n\n"
                "[cocycle exp]\ne1 -> xi1 e1\n")
        with pytest.raises(ScenarioError):
            parse_scenario(text)


class TestCliExitCodes:
    def test_validate_ok(self, capsys):
        assert run_cli("validate", str(SCENARIOS / "worked_complex.scn")) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_d_squared(self, capsys):
        assert run_cli("validate", str(SCENARIOS / "invalid_d_squared.scn")) == 2
        out = capsys.readouterr().out
        assert "d^1 d^0" in out

    def test_validate_unstable_window(self, capsys):
        assert run_cli("validate", str(SCENARIOS / "line_five_narrow.scn")) == 3
        assert "increase N" in capsys.readouterr().out

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("not a scenario\n")
        assert run_cli("validate", str(bad)) == 1

    def test_missing_file(self):
        assert run_cli("validate", "/nonexistent.scn") == 1

    def test_order_on_raw_complex_is_usage_error(self, capsys):
        assert run_cli("order", str(SCENARIOS / "worked_complex.scn")) == 1

    def test_verify_tampered_fails(self, capsys):
        assert run_cli("verify", str(SCENARIOS / "tampered.scn")) == 4
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "symbol action" in out

    def test_window_override(self, capsys):
        assert run_cli("validate", str(SCENARIOS / "line_five_narrow.scn"),
                       "--window-override", "5") == 0

    def test_window_override_zero_is_usage_error(self, capsys):
        assert run_cli("validate", str(SCENARIOS / "split_m2.scn"),
                       "--window-override", "0") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_negative_r_max_is_usage_error(self, capsys):
        assert run_cli("pages", str(SCENARIOS / "worked_complex.scn"), "--r-max", "-1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestCliOutputs:
    def test_pages_text_contains_worked_grid(self, capsys):
        assert run_cli("pages", str(SCENARIOS / "worked_complex.scn")) == 0
        out = capsys.readouterr().out
        assert "page r=0" in out
        assert "page r=2 (limit)" in out

    def test_pages_csv_latex_same_numbers(self, capsys):
        assert run_cli("pages", str(SCENARIOS / "worked_complex.scn"),
                       "--format", "csv") == 0
        csv_out = capsys.readouterr().out
        assert run_cli("pages", str(SCENARIOS / "worked_complex.scn"),
                       "--format", "latex") == 0
        latex_out = capsys.readouterr().out

        csv_dims = {}
        for line in csv_out.splitlines()[1:]:
            r, p, q, dim = line.split(",")
            csv_dims[(int(r), int(p), int(q))] = int(dim)
        # page 1 grid from the latex table must match the csv numbers
        import re
        pages = re.split(r"\\begin\{tabular\}[^\n]*", latex_out)[1:]
        for r, block in enumerate(pages):
            rows = re.findall(r"\$q=(-?\d+)\$ & ([^\\]*)", block)
            for q_text, cells in rows:
                q = int(q_text)
                for p, cell in enumerate(c.strip() for c in cells.split("&")):
                    assert csv_dims[(r, p, q)] == int(cell)

    def test_pages_worked_dimensions(self, capsys):
        assert run_cli("pages", str(SCENARIOS / "worked_complex.scn"),
                       "--format", "csv") == 0
        out = capsys.readouterr().out
        dims = {}
        for line in out.splitlines()[1:]:
            r, p, q, dim = (int(v) for v in line.split(","))
            dims[(r, p, q)] = dim
        assert dims[(0, 0, 0)] == 1 and dims[(0, 1, 0)] == 1
        assert dims[(1, 0, 0)] == 1 and dims[(1, 1, -1)] == 1
        assert dims[(2, 0, 0)] == 0 and dims[(2, 0, 1)] == 1 and dims[(2, 1, -1)] == 1

    def test_split_sheaf_pages_stable_from_one(self, capsys):
        assert run_cli("pages", str(SCENARIOS / "split_m2.scn"),
                       "--format", "csv") == 0
        out = capsys.readouterr().out
        dims = {}
        for line in out.splitlines()[1:]:
            r, p, q, dim = (int(v) for v in line.split(","))
            dims.setdefault(r, {})[(p, q)] = dim
        for r in range(2, max(dims) + 1):
            assert dims[r] == dims[1]

    def test_cohomology_table(self, capsys):
        assert run_cli("cohomology", str(SCENARIOS / "worked_complex.scn")) == 0
        out = capsys.readouterr().out
        assert "H^0: dim 1" in out
        assert "H^1: dim 1" in out
        assert "agrees: yes" in out

    def test_cohomology_line_bundle(self, capsys):
        assert run_cli("cohomology", str(SCENARIOS / "line_minus_two.scn")) == 0
        out = capsys.readouterr().out
        assert "H^0: dim 0" in out
        assert "H^1: dim 1" in out

    def test_order_commands(self, capsys):
        assert run_cli("order", str(SCENARIOS / "split_m2.scn")) == 0
        assert "order: infinity" in capsys.readouterr().out
        assert run_cli("order", str(SCENARIOS / "order_two.scn")) == 0
        assert "order: 2" in capsys.readouterr().out
        assert run_cli("order", str(SCENARIOS / "order_infinity.scn")) == 0
        assert "order: infinity" in capsys.readouterr().out

    def test_field_cocycle_scenario(self, capsys):
        assert run_cli("order", str(SCENARIOS / "order_two_field.scn")) == 0
        assert "order: 2" in capsys.readouterr().out
        assert run_cli("verify", str(SCENARIOS / "order_two_field.scn")) == 0
        assert "degeneracy: PASS" in capsys.readouterr().out

    def test_verify_passes(self, capsys):
        assert run_cli("verify", str(SCENARIOS / "split_m2.scn")) == 0
        out = capsys.readouterr().out
        assert "degeneracy: PASS" in out
        assert run_cli("verify", str(SCENARIOS / "order_two.scn")) == 0
        out = capsys.readouterr().out
        assert "order: 2" in out
        assert "d_1 = 0: PASS" in out
        assert "degeneracy: PASS" in out

    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "pages.txt"
        assert run_cli("pages", str(SCENARIOS / "worked_complex.scn"),
                       "--out", str(target)) == 0
        assert "page r=0" in target.read_text()
