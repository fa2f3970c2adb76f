import json

import pytest

import artifact.verify
from artifact.cli import dispatch
from artifact.core import equals, from_json
from artifact.catalog import residual, theta_characteristic_locus, weierstrass


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassVerb:
    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "class", "--name", "residual", "--g", "4")
        assert code == 0
        assert equals(from_json(out), residual(4))

    def test_parity_flag(self, capsys):
        code, out, _ = run(
            capsys, "class", "--name", "theta-char", "--g", "3", "--parity", "odd"
        )
        assert code == 0
        assert equals(from_json(out), theta_characteristic_locus(3, "odd"))

    def test_weight_vector_flag(self, capsys):
        code, out, _ = run(capsys, "class", "--name", "logan", "--g", "4", "--d", "1,3")
        assert code == 0
        assert json.loads(out)["n"] == 2

    def test_negative_weight_vector_parses(self, capsys):
        from artifact.catalog import coupled_partition

        code, out, _ = run(
            capsys, "class", "--name", "coupled", "--g", "4", "--d", "-2,1,1"
        )
        assert code == 0
        assert equals(from_json(out), coupled_partition(4, (-2, 1, 1)))

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "class", "--name", "weierstrass", "--g", "5")
        _, out2, _ = run(capsys, "class", "--name", "weierstrass", "--g", "5")
        assert out1 == out2

    def test_csv_and_latex_formats(self, capsys):
        code, out, _ = run(
            capsys, "class", "--name", "weierstrass", "--g", "3", "--format", "csv"
        )
        assert code == 0
        assert out.startswith("generator,coefficient")
        code, out, _ = run(
            capsys, "class", "--name", "weierstrass", "--g", "3", "--format", "latex"
        )
        assert code == 0
        assert r"\begin{tabular}" in out

    def test_unknown_class_is_usage_error(self, capsys):
        code, _, err = run(capsys, "class", "--name", "nonsense", "--g", "4")
        assert code == 2
        assert "unknown class" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "class", "--name", "d1-holo", "--g", "4")
        assert code == 2
        assert "--k" in err

    def test_bad_constructor_params_are_usage_errors(self, capsys):
        code, _, err = run(capsys, "class", "--name", "weierstrass", "--g", "1")
        assert code == 2


class TestPullbackVerb:
    def test_glue_tail(self, capsys):
        code, out, _ = run(
            capsys,
            "pullback", "--name", "residual", "--g", "4",
            "--map", "glue-tail:h=1,j=0,at=1",
        )
        assert code == 0
        d = json.loads(out)
        assert (d["g"], d["n"]) == (3, 1)

    def test_forget(self, capsys):
        code, out, _ = run(
            capsys,
            "pullback", "--name", "weierstrass", "--g", "4", "--map", "forget:j=2",
        )
        assert code == 0
        assert json.loads(out)["n"] == 2

    def test_bad_map_kind(self, capsys):
        code, _, err = run(
            capsys,
            "pullback", "--name", "weierstrass", "--g", "4", "--map", "teleport",
        )
        assert code == 2
        assert "unknown map kind" in err

    def test_bad_map_parameter(self, capsys):
        code, _, _ = run(
            capsys,
            "pullback", "--name", "weierstrass", "--g", "4",
            "--map", "glue-tail:h=,j=0",
        )
        assert code == 2

    @pytest.mark.parametrize("spec,named", [
        ("glue-tail:h=1,attach=2", "no parameter attach"),
        ("identify-points:h=3", "no parameter h"),
        ("forget:j=2,j=1", "repeated map parameter 'j=1'"),
    ])
    def test_unknown_or_repeated_map_parameter(self, capsys, spec, named):
        code, out, err = run(
            capsys,
            "pullback", "--name", "logan", "--g", "4", "--d", "3,1", "--map", spec,
        )
        assert (code, out) == (2, "")
        assert named in err


class TestValueVerbs:
    def test_dj_default_is_configuration_count(self, capsys):
        code, out, _ = run(capsys, "dj", "--g", "4", "--kappa", "1,2,2")
        assert code == 0
        assert json.loads(out) == {"value": "68"}

    def test_dj_ordered(self, capsys):
        code, out, _ = run(capsys, "dj", "--g", "4", "--kappa", "1,2,2", "--ordered")
        assert code == 0
        assert json.loads(out) == {"value": "136"}

    def test_plucker(self, capsys):
        code, out, _ = run(capsys, "plucker", "--r", "2", "--d", "4", "--g", "3")
        assert code == 0
        assert json.loads(out)["value"] == "24"

    def test_picdeg(self, capsys):
        code, out, _ = run(capsys, "picdeg", "--g", "2", "--kappa", "5,1")
        assert code == 0
        assert json.loads(out) == {"value": "50"}

    def test_residue(self, capsys):
        code, out, _ = run(capsys, "residue", "--j", "4", "--k", "5", "--m", "5")
        assert code == 0
        assert json.loads(out) == {
            "coeffs": [10, 20, 5],
            "distinct_nonzero_roots": 2,
        }

    def test_pair(self, capsys):
        code, out, _ = run(
            capsys, "pair", "--name", "residual", "--g", "4", "--curve", "E"
        )
        assert code == 0
        assert json.loads(out) == {"value": "0"}

    def test_value_domain_error(self, capsys):
        code, _, _ = run(capsys, "dj", "--g", "3", "--kappa", "1,1,1")
        assert code == 2


class TestVerifyVerb:
    def test_text_summary(self, capsys):
        code, out, _ = run(capsys, "verify", "--gmax", "3")
        assert code == 0
        assert "identities hold" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--gmax", "3", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["passed"] is True and d["failed"] == 0

    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "R18", "--gmax", "4", "--json")
        assert code == 0
        assert all(e["relation"] == "R18" for e in json.loads(out)["entries"])

    def test_format_flag_rejected(self, capsys):
        # verify selects JSON with --json; --format is not one of its flags
        code, _, _ = run(capsys, "verify", "--gmax", "3", "--format", "json")
        assert code == 2

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "R999", "--gmax", "3")
        assert code == 2

    def test_failure_exit_code(self, capsys, monkeypatch):
        bad = artifact.verify.Relation(
            "BAD", ("weierstrass",),
            lambda G, N, H: [{}],
            lambda: [(weierstrass(3), 2 * weierstrass(3))],
        )
        monkeypatch.setitem(artifact.verify.RELATIONS, "BAD", bad)
        code, out, _ = run(capsys, "verify", "--suite", "BAD", "--gmax", "3")
        assert code == 1
        assert "FAIL BAD[] first difference ('lambda'," in out


class TestOutput:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "cls.json"
        code, out, _ = run(
            capsys, "class", "--name", "weierstrass", "--g", "3", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert equals(from_json(target.read_text()), weierstrass(3))

    def test_missing_verb_is_usage_error(self, capsys):
        assert dispatch([]) == 2
        capsys.readouterr()
