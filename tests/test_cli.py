import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import artifact
import artifact.verify
from artifact import (
    ModuliBase,
    builtin_test_curve,
    count_distinct_nonzero_roots,
    coupled_partition,
    de_jonquieres,
    forget_point,
    glue_tail,
    pair,
    picard_degree,
    plucker,
    pullback,
    residue_polynomial,
    to_json,
)
from artifact.cli import dispatch
from artifact.core import equals, from_json
from artifact.catalog import CONSTRUCTORS, residual, theta_characteristic_locus, weierstrass
from artifact.verify import run_suite


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

    def test_a_base_with_too_many_keys_is_refused(self, capsys):
        code, out, err = run(capsys, "class", "--name", "weierstrass", "--g", "1000000000")
        assert code == 2 and out == ""
        assert "boundary keys" in err

    def test_a_spin_class_on_a_huge_genus_is_refused(self, capsys):
        # its coefficients have about g bits: the base is refused before them
        code, out, err = run(capsys, "class", "--name", "theta-char", "--g", str(10 ** 20))
        assert code == 2 and out == ""
        assert "boundary keys" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "class", "--name", "d1-holo", "--g", "4")
        assert code == 2
        assert "--k" in err

    def test_bad_constructor_params_are_usage_errors(self, capsys):
        code, _, err = run(capsys, "class", "--name", "weierstrass", "--g", "1")
        assert code == 2


# a value for every class flag, valid for every class that takes it but for
# the weights, which some classes take in their own form
_FLAG_VALUES = {"g": "4", "k": "2", "h": "2", "d": "3,1", "parity": "odd"}
_WEIGHTS = {"coupled": "-2,2", "pinch": "2,1", "theta-pullback": "5,-2"}
_VERB_FLAGS = {"class": [], "pullback": ["--map", "forget"], "pair": ["--curve", "A"]}


def _class_argv(name, flags):
    values = dict(_FLAG_VALUES, d=_WEIGHTS.get(name, "3,1"))
    return ["--name", name] + [x for w in flags for x in ("--" + w, values[w])]


class TestClassFlags:
    """A class flag is passed to the catalog function only when the class
    takes it; any other class flag is refused, before anything is built."""

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_the_flags_a_class_takes_build_it(self, capsys, name):
        code, out, err = run(capsys, "class", *_class_argv(name, CONSTRUCTORS[name][1]))
        assert code == 0, err
        assert from_json(out).base.g == 4

    @pytest.mark.parametrize("verb", sorted(_VERB_FLAGS))
    @pytest.mark.parametrize("name,flag", [
        (name, flag) for name, (_, wants) in sorted(CONSTRUCTORS.items())
        for flag in _FLAG_VALUES if flag not in wants])
    def test_a_flag_the_class_does_not_take_is_refused(self, capsys, verb, name, flag):
        argv = _class_argv(name, CONSTRUCTORS[name][1] + (flag,))
        code, out, err = run(capsys, verb, *argv, *_VERB_FLAGS[verb])
        assert (code, out) == (2, "")
        assert "takes no flag --%s" % flag in err


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
        # an unknown parameter is refused before the map is built
        ("glue-tail:attach=2", "map glue-tail takes no parameter attach"),
        ("glue-closed-tail:h=0,foo=1", "map glue-closed-tail takes no parameter foo"),
        ("forget:j=x", "map parameter j is not an integer: 'x'"),
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

    def test_dj_text_format_and_no_class_formats(self, capsys):
        code, out, _ = run(capsys, "dj", "--g", "4", "--kappa", "1,2,2", "--format", "text")
        assert (code, out) == (0, "68\n")
        # a value has no CSV or LaTeX form
        for fmt in ("csv", "latex"):
            code, out, _ = run(capsys, "dj", "--g", "4", "--kappa", "1,2,2", "--format", fmt)
            assert (code, out) == (2, "")

    @pytest.mark.parametrize("argv", [
        ["pair", "--name", "residual", "--g", "4", "--curve", "E"],
        ["plucker", "--r", "2", "--d", "4", "--g", "3"],
        ["picdeg", "--g", "2", "--kappa", "5,1"],
        ["residue", "--j", "4", "--k", "5", "--m", "5"],
    ], ids=["pair", "plucker", "picdeg", "residue"])
    def test_value_verbs_take_json_or_text(self, capsys, argv):
        assert run(capsys, *argv, "--format", "csv")[0] == 2
        code, out, _ = run(capsys, *argv, "--format", "text")
        assert code == 0 and not out.startswith("{")

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

    def test_residue_of_a_huge_degree_is_refused(self, capsys):
        code, out, err = run(capsys, "residue", "--j", "100000000000000000000",
                             "--k", "3", "--m", "2")
        assert code == 2 and out == "" and "error:" in err

    def test_pair(self, capsys):
        code, out, _ = run(
            capsys, "pair", "--name", "residual", "--g", "4", "--curve", "E"
        )
        assert code == 0
        assert json.loads(out) == {"value": "0"}

    @pytest.mark.parametrize("curve,flags", [
        ("A", ["--i", "7"]), ("A", ["--n", "1"]), ("E", ["--i", "1"]),
        ("B", ["--i", "1", "--n", "1"]), ("C", ["--i", "1", "--n", "1"]),
    ])
    def test_pair_refuses_a_parameter_the_curve_does_not_take(self, capsys, curve, flags):
        code, out, err = run(capsys, "pair", "--name", "weierstrass", "--g", "4",
                             "--curve", curve, *flags)
        assert (code, out) == (2, "")
        assert "curve %s takes no parameter" % curve in err

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

    @pytest.mark.parametrize("argv", [["--gmax", "1"], ["--gmax", "-1"],
                                      ["--suite", "R1", "--gmax", "3"],
                                      ["--gmax", "5", "--nmax", "-3"]])
    def test_bounds_that_check_nothing_are_refused(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and "error:" in err

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "R999", "--gmax", "3")
        assert code == 2

    def test_failure_exit_code(self, capsys, monkeypatch):
        bad = artifact.verify.Relation(
            "BAD",
            lambda G, N, H: [{}],
            lambda: [(weierstrass(3), 2 * weierstrass(3))],
        )
        monkeypatch.setitem(artifact.verify.RELATIONS, "BAD", bad)
        code, out, _ = run(capsys, "verify", "--suite", "BAD", "--gmax", "3")
        assert code == 1
        assert "FAIL BAD[] first difference ('lambda'," in out


def _value(v):
    return json.dumps({"value": str(v)}, separators=(",", ":"))


# each README command-line example and the library call it stands for; the
# coupled example leaves out --parity, so the catalog's default applies
_README_CALLS = {
    "class --name weierstrass --g 3": lambda: to_json(weierstrass(3)),
    "class --name theta-char --g 3 --parity odd":
        lambda: to_json(theta_characteristic_locus(3, "odd")),
    "class --name coupled --g 4 --d -2,1,1": lambda: to_json(coupled_partition(4, (-2, 1, 1))),
    "pullback --name residual --g 4 --map glue-tail:h=1,j=0,at=1":
        lambda: to_json(pullback(glue_tail(ModuliBase(3, 1), 1, 0, 1), residual(4))),
    "pullback --name weierstrass --g 4 --map forget:j=2":
        lambda: to_json(pullback(forget_point(ModuliBase(4, 2), 2), weierstrass(4))),
    "pair --name residual --g 4 --curve E":
        lambda: _value(pair(builtin_test_curve("E", ModuliBase(4, 1)), residual(4))),
    "pair --name weierstrass --g 5 --curve C --i 2":
        lambda: _value(pair(builtin_test_curve("C", ModuliBase(5, 1), i=2), weierstrass(5))),
    # the CLI counts configurations unless --ordered; the library counts
    # ordered zeros unless told otherwise
    "dj --g 4 --kappa 1,2,2": lambda: _value(de_jonquieres(4, (1, 2, 2), ordered=False)),
    "dj --g 4 --kappa 1,2,2 --ordered": lambda: _value(de_jonquieres(4, (1, 2, 2))),
    "plucker --r 2 --d 4 --g 3": lambda: _value(plucker(2, 4, 3)),
    "picdeg --g 2 --kappa 5,1": lambda: _value(picard_degree((5, 1), 2)),
    "residue --j 4 --k 5 --m 5": lambda: json.dumps(
        {"coeffs": list(residue_polynomial(4, 5, 5).coeffs),
         "distinct_nonzero_roots": count_distinct_nonzero_roots(residue_polynomial(4, 5, 5))},
        separators=(",", ":")),
    "verify --gmax 5": lambda: run_suite(5).summary(),
    "verify --suite R18 --gmax 6 --json": lambda: run_suite(6, suite="R18").to_json(),
}


def _readme_section(title):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    return readme.split("## %s" % title, 1)[1].split("\n## ", 1)[0]


def _readme_block(title, lang):
    """The first ```lang block of the README section with this title."""
    return _readme_section(title).split("```%s\n" % lang, 1)[1].split("```", 1)[0]


def _readme_examples():
    section = _readme_section("Command line")
    return [line.split("#")[0].split()[1:] for line in section.splitlines()
            if line.startswith("artifact ")]


class TestReadmeExamples:
    def test_every_example_has_its_library_call(self):
        assert sorted(" ".join(argv) for argv in _readme_examples()) == sorted(_README_CALLS)

    @pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
    def test_the_example_prints_its_library_call(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        want = _README_CALLS[" ".join(argv)]()
        assert code == 0
        assert out == want if want.endswith("\n") else out == want + "\n"

    def test_the_library_example_prints_its_comments(self, capsys):
        # the comment on each print line is the line it prints
        block = _readme_block("Library example", "python")
        want = [line.split("# ", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out.splitlines() == want and len(want) == 2

    def test_the_json_example_is_the_odd_theta_class(self):
        # the example is broken over two lines; the writer writes one
        block = _readme_block("JSON format", "json")
        assert "".join(block.split()) == to_json(theta_characteristic_locus(3, "odd"))


class TestOutput:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "cls.json"
        code, out, _ = run(
            capsys, "class", "--name", "weierstrass", "--g", "3", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert equals(from_json(target.read_text()), weierstrass(3))

    @pytest.mark.parametrize("argv", [["class", "--name", "weierstrass", "--g", "3"],
                                      ["verify", "--gmax", "3"]])
    @pytest.mark.parametrize("where", ["a directory", "a missing directory"])
    def test_an_unwritable_out_is_a_usage_error(self, capsys, tmp_path, argv, where):
        # exit 1 is a verification failure; a file that cannot be written is
        # the caller's error, reported without a traceback
        target = tmp_path if where == "a directory" else tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(target) in err

    def test_missing_verb_is_usage_error(self, capsys):
        assert dispatch([]) == 2
        capsys.readouterr()


# A fresh interpreter that imports the CLI, dispatches argv, and writes to
# stderr the modules that the import and the verb added to sys.modules.
_PROBE = """
import sys
before = set(sys.modules)
from artifact.cli import dispatch
code = dispatch(sys.argv[1:])
sys.stderr.write(" ".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


def _fresh(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(artifact.__file__).parent.parent))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


class TestColdStartImports:
    """A verb loads only what it runs: the identity registry is compiled by
    the verify verb alone, and no verb imports dataclasses or inspect.
    Module counts, not clocks, so the test is exact on a noisy machine."""

    UNWANTED = {"artifact.verify", "dataclasses", "inspect"}

    @pytest.mark.parametrize("argv", [
        ["class", "--name", "weierstrass", "--g", "5"],
        ["pullback", "--name", "residual", "--g", "4", "--map", "glue-tail:h=1,j=0,at=1"],
        ["pair", "--name", "residual", "--g", "4", "--curve", "E"],
        ["class", "--name", "logan", "--g", "7", "--d", "1,1,1,1,1,1,1", "--format", "latex"],
        ["residue", "--j", "4", "--k", "5", "--m", "5"],
        ["dj", "--g", "20", "--kappa", ",".join(["2", "2"] + ["1"] * 16)],
    ], ids=["class", "pullback", "pair", "latex", "residue", "dj"])
    def test_verb_does_not_load_the_registry(self, argv):
        p = _fresh("-c", _PROBE, *argv)
        assert p.returncode == 0, p.stderr
        added = set(p.stderr.split())
        assert "artifact.cli" in added
        assert not added & self.UNWANTED

    def test_verify_loads_the_registry_and_prints_the_same_bytes(self):
        p = _fresh("-c", _PROBE, "verify", "--gmax", "5")
        assert p.returncode == 0
        added = set(p.stderr.split())
        assert "artifact.verify" in added
        assert not added & {"dataclasses", "inspect"}
        assert hashlib.sha256(p.stdout.encode()).hexdigest().startswith("983beba0667056ea")

    def test_bare_package_import_loads_the_class_layers(self):
        # the wide benchmark pass relies on this to keep these imports out of
        # its timed steps
        p = _fresh("-c", "import sys, artifact; print(' '.join(sorted(sys.modules)))")
        assert p.returncode == 0, p.stderr
        loaded = {m for m in p.stdout.split() if m.split(".")[0] == "artifact"}
        assert loaded == {"artifact", "artifact.core", "artifact.maps",
                          "artifact.enumerative", "artifact.catalog"}
