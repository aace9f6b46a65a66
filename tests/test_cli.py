"""End-to-end command-line behaviour through ``main``, in process."""
import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qrealize.cli import main
from qrealize.tensor import Operator, space

from reference import operator_to_json, write_json


class Result:
    def __init__(self, exit_code, exception, output):
        self.exit_code, self.exception, self.output = exit_code, exception, output


class Runner:
    """Calls a CLI entry point with ``args`` and, for the call, the variables
    in ``env`` set; ``output`` holds stdout and stderr interleaved.  A
    SystemExit gives its code (and is the ``exception`` unless the code is
    0); any other exception gives exit code 1 and is kept."""

    def invoke(self, cli, args, env=None):
        saved = {k: os.environ.get(k) for k in env or {}}
        os.environ.update(env or {})
        out = io.StringIO()
        exit_code, exception = 0, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                cli(args, prog_name="qrealize")
        except SystemExit as exc:
            code = exc.code
            exit_code = code if isinstance(code, int) else (0 if code is None else 1)
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception = 1, exc
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        return Result(exit_code, exception, out.getvalue())


@pytest.fixture
def runner():
    return Runner()


def _write_op(path, labels, mat):
    write_json(str(path), operator_to_json(Operator(space(*labels), mat)))
    return str(path)


def _singlet_pair(path, name_a, name_b):
    mat = np.zeros((4, 4), dtype=complex)
    for i, j in ((1, 1), (2, 2)):
        mat[i, j] = 0.5
    mat[1, 2] = mat[2, 1] = -0.5
    return _write_op(path, [(name_a, 2), (name_b, 2)], mat)


def _mixed_pair(path, name_a, name_b):
    return _write_op(path, [(name_a, 2), (name_b, 2)], np.eye(4) / 4)


def _ghz_pair(path, name_a, name_b):
    # two-qubit marginal of the three-qubit GHZ state: realizable by a pure joint
    return _write_op(path, [(name_a, 2), (name_b, 2)],
                     np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))


def test_help_and_bare_invocation(runner):
    assert runner.invoke(main, []).exit_code == 0
    res = runner.invoke(main, ["--help"])
    assert res.exit_code == 0
    assert "qmp" in res.output


@pytest.mark.parametrize("command", ["check", "ortho", "subspace"])
def test_budget_dim_help_names_the_one_budget_it_sets(runner, command):
    res = runner.invoke(main, ["qmp", command, "--help"])
    assert res.exit_code == 0
    text = " ".join(res.output.split())
    assert "--budget-dim" in text and "every dense matrix" in text
    assert "the Lanczos basis included. Sets dense_dim." in text
    assert "keeps its default" not in text and "dense_eig_dim" not in text


@pytest.mark.parametrize("command", ["check", "ortho"])
def test_budget_perms_help_names_perms_matrix_free(runner, command):
    res = runner.invoke(main, ["qmp", command, "--help"])
    assert res.exit_code == 0
    assert "Sets perms_matrix_free" in " ".join(res.output.split())


def test_show_config_lists_defaults(runner):
    res = runner.invoke(main, ["--show-config"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["env_prefix"] == "QREALIZE"
    assert doc["tolerances"]["psd"] == 1e-9
    assert doc["budgets"] == {"dense_dim": 4096, "perms_matrix_free": 500_000}
    assert list(doc["tolerances"]) == ["herm", "trace", "psd", "eig"]


def test_config_defaults_are_immutable_named_tuples():
    from qrealize.config import BUDGET, TOL, Budgets, Tolerances

    assert Tolerances._fields == ("herm", "trace", "psd", "eig")
    assert Budgets._fields == ("dense_dim", "perms_matrix_free")
    with pytest.raises(AttributeError):
        TOL.psd = 0.0
    with pytest.raises(AttributeError):
        BUDGET.dense_dim = 1
    assert TOL.with_(psd=1e-6) == Tolerances(psd=1e-6) and TOL.psd == 1e-9
    assert BUDGET.with_(dense_dim=16).check_dense(16, "x") is None


def test_witness3_on_singlets_prints_value_and_exits_1(runner, tmp_path):
    ab = _singlet_pair(tmp_path / "ab.json", "A", "B")
    ac = _singlet_pair(tmp_path / "ac.json", "A", "C")
    bc = _singlet_pair(tmp_path / "bc.json", "B", "C")
    res = runner.invoke(main, ["qmp", "witness3", ab, ac, bc])
    assert res.exit_code == 1
    assert float(res.output) == pytest.approx(1 / 16, rel=1e-12)


def test_witness3_vanishes_on_realizable_marginals(runner, tmp_path):
    ab = _ghz_pair(tmp_path / "ab.json", "A", "B")
    ac = _ghz_pair(tmp_path / "ac.json", "A", "C")
    bc = _ghz_pair(tmp_path / "bc.json", "B", "C")
    res = runner.invoke(main, ["qmp", "witness3", ab, ac, bc])
    assert res.exit_code == 0
    assert float(res.output) == pytest.approx(0.0, abs=1e-12)


def test_qmp_check_flags_singlet_triangle(runner, tmp_path):
    ab = _singlet_pair(tmp_path / "ab.json", "A", "B")
    ac = _singlet_pair(tmp_path / "ac.json", "A", "C")
    bc = _singlet_pair(tmp_path / "bc.json", "B", "C")
    out = tmp_path / "cert.json"
    res = runner.invoke(main, ["qmp", "check", ab, ac, bc, "--out", str(out)])
    assert res.exit_code == 1
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "VIOLATED"
    assert doc["gap"] < -0.06
    assert len(doc["witness_re"]) == 64


def test_qmp_check_flags_rank_overflowing_chain(runner, tmp_path):
    # no pure three-qubit state leaves both overlapping pairs maximally
    # mixed (a rank-4 marginal cannot be purified by one extra qubit)
    ab = _mixed_pair(tmp_path / "ab.json", "A", "B")
    bc = _mixed_pair(tmp_path / "bc.json", "B", "C")
    assert runner.invoke(main, ["qmp", "check", ab, bc]).exit_code == 0
    res = runner.invoke(main, ["qmp", "check", ab, bc, "--level", "2"])
    assert res.exit_code == 1
    assert json.loads(res.output)["verdict"] == "VIOLATED"


def test_qmp_check_consistent_on_realizable_marginals(runner, tmp_path):
    ab = _ghz_pair(tmp_path / "ab.json", "A", "B")
    bc = _ghz_pair(tmp_path / "bc.json", "B", "C")
    res = runner.invoke(main, ["qmp", "check", ab, bc, "--level", "2"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["verdict"] == "CONSISTENT_AT_LEVEL" and doc["level"] == 2


@pytest.mark.parametrize("tol", ["-1e-3", "-0.5", "nan", "inf"])
@pytest.mark.parametrize("command", ["check", "ortho", "subspace", "witness3"])
def test_negative_or_non_finite_tol_psd_exits_2(runner, tmp_path, command, tol):
    # GHZ's pair marginals are realizable (gap +1.8e-16, witness value 0); a
    # negative threshold certified them VIOLATED with exit 1
    files = [_ghz_pair(tmp_path / f"{a}{b}.json", a, b) for a, b in ("AB", "AC", "BC")]
    joint = [("A", 2), ("B", 2), ("C", 2)]
    extra = {"check": [], "witness3": [], "ortho": ["--rank", "1"],
             "subspace": ["--projector", _write_op(tmp_path / "id.json", joint, np.eye(8))]}
    args = ["qmp", command, *files, *extra[command]]
    assert runner.invoke(main, args).exit_code == 0
    res = runner.invoke(main, [*args, f"--tol-psd={tol}"])
    assert res.exit_code == 2
    assert f"--tol-psd must be finite and >= 0, got {float(tol)}" in res.output


def test_qmp_check_rejects_conflicting_label_dims(runner, tmp_path):
    ab = _mixed_pair(tmp_path / "ab.json", "A", "B")
    b3 = _write_op(tmp_path / "b3.json", [("B", 3), ("C", 3)], np.eye(9) / 9)
    res = runner.invoke(main, ["qmp", "check", ab, b3])
    assert res.exit_code == 2
    assert "dims" in res.output


def test_malformed_json_reports_position_and_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"labels": [,]}')
    res = runner.invoke(main, ["qmp", "bipartite", str(bad), str(bad)])
    assert res.exit_code == 2
    assert "line 1" in res.output


def test_non_density_payload_exits_2(runner, tmp_path):
    notdens = _write_op(tmp_path / "x.json", [("A", 2)], np.diag([2.0, -1.0]))
    good = _write_op(tmp_path / "y.json", [("B", 2)], np.eye(2) / 2)
    res = runner.invoke(main, ["qmp", "bipartite", notdens, good])
    assert res.exit_code == 2
    assert "not a density operator" in res.output


@pytest.mark.parametrize("command,dim", [("keyl", 2.5), ("qmp bipartite", 2.7),
                                         ("qmp check", 2.5)])
def test_fractional_label_dimension_exits_2(runner, tmp_path, command, dim):
    """A dimension of 2.5 is refused with its label named, not read as 2."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"labels": [["A", dim]], "re": (np.eye(2) / 2).tolist()}))
    good = _write_op(tmp_path / "good.json", [("B", 2)], np.eye(2) / 2)
    res = runner.invoke(main, command.split() + [str(bad), good])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"label 'A' has dimension {dim}, not an integer" in res.output


def test_bipartite_verdicts(runner, tmp_path):
    a = _write_op(tmp_path / "a.json", [("A", 2)], np.diag([0.7, 0.3]))
    b_ok = _write_op(tmp_path / "b1.json", [("B", 3)], np.diag([0.7, 0.3, 0.0]))
    b_no = _write_op(tmp_path / "b2.json", [("B", 2)], np.diag([0.6, 0.4]))
    ok = runner.invoke(main, ["qmp", "bipartite", a, b_ok])
    assert ok.exit_code == 0 and json.loads(ok.output)["realizable"] is True
    no = runner.invoke(main, ["qmp", "bipartite", a, b_no])
    assert no.exit_code == 1
    doc = json.loads(no.output)
    assert doc["realizable"] is False and doc["rate"] > 0


def test_ortho_requires_rank_and_runs(runner, tmp_path):
    ab = _singlet_pair(tmp_path / "ab.json", "A", "B")
    ac = _singlet_pair(tmp_path / "ac.json", "A", "C")
    bc = _singlet_pair(tmp_path / "bc.json", "B", "C")
    missing = runner.invoke(main, ["qmp", "ortho", ab, ac, bc])
    assert missing.exit_code == 2
    res = runner.invoke(main, ["qmp", "ortho", ab, ac, bc, "--rank", "1"])
    assert res.exit_code == 1
    assert json.loads(res.output)["verdict"] == "VIOLATED"


def test_subspace_full_projector_matches_plain_check(runner, tmp_path):
    ab = _mixed_pair(tmp_path / "ab.json", "A", "B")
    bc = _mixed_pair(tmp_path / "bc.json", "B", "C")
    proj = _write_op(tmp_path / "p.json",
                     [("A", 2), ("B", 2), ("C", 2)], np.eye(8))
    res = runner.invoke(main, ["qmp", "subspace", ab, bc, "--projector", proj])
    assert res.exit_code == 0
    assert json.loads(res.output)["verdict"] == "CONSISTENT_AT_LEVEL"


@pytest.mark.parametrize("names", ["CBA", "XYZ"])
def test_subspace_projector_on_another_label_order_exits_2(runner, tmp_path, names):
    ab = _mixed_pair(tmp_path / "ab.json", "A", "B")
    bc = _mixed_pair(tmp_path / "bc.json", "B", "C")
    proj = _write_op(tmp_path / "p.json", [(x, 2) for x in names],
                     np.kron(np.diag([1.0, 0.0]), np.eye(4)))
    res = runner.invoke(main, ["qmp", "subspace", ab, bc, "--projector", proj])
    assert res.exit_code == 2
    want = tuple((x, 2) for x in names)
    assert f"projector labels {want}, joint register (('A', 2), ('B', 2), ('C', 2))" \
        in res.output


def test_keyl_command_reports_divergence_and_bound(runner, tmp_path):
    r = _write_op(tmp_path / "r.json", [("A", 2)], np.diag([0.75, 0.25]))
    s = _write_op(tmp_path / "s.json", [("A", 2)], np.diag([0.5, 0.5]))
    res = runner.invoke(main, ["keyl", r, s, "--copies", "8"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert doc["keyl"] == pytest.approx(want, rel=1e-10)
    assert doc["ok"] is True and doc["ratio"] <= doc["bound"] * (1 + 1e-9)


@pytest.mark.parametrize("copies,extra", [
    (None, {}),
    (4, {"copies": 4, "ratio": 0, "bound": 0, "ok": True}),
    (1, {"copies": 1, "ratio": 0, "bound": None, "ok": True}),
])
def test_keyl_writes_null_for_an_infinite_divergence(runner, tmp_path, copies, extra):
    # sigma vanishes on rho's leading eigenvector, so K(rho || sigma) = +inf
    r = _write_op(tmp_path / "r.json", [("A", 2)], np.diag([0.7, 0.3]))
    s = _write_op(tmp_path / "s.json", [("A", 2)], np.diag([0.0, 1.0]))
    args = ["keyl", r, s] + ([] if copies is None else ["--copies", str(copies)])
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output) == {"keyl": None, **extra}


def test_sanov_command_checks_envelope(runner):
    res = runner.invoke(main, ["sanov", "--q", "0.5,0.5", "--type", "3,1"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["ok"] is True
    assert doc["lower"] <= doc["value"] <= doc["upper"]
    assert doc["value"] == pytest.approx(4 / 16)


def test_sanov_mass_of_a_large_type_underflows_instead_of_overflowing(runner):
    """The multinomial coefficient C(1200, 600) is past float range; the mass
    is one correctly rounded integer division."""
    res = runner.invoke(main, ["sanov", "--q", "0.5,0.5", "--type", "600,600"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["value"] == math.comb(1200, 600) / 2 ** 1200
    assert doc["ok"] is True


def test_sanov_mass_past_float_range_exits_2(runner):
    """A q whose mass is past float range is no distribution: exit 2, not an
    OverflowError traceback with exit 1."""
    res = runner.invoke(main, ["sanov", "--q", "1e300,1", "--type", "2,0"])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "sums to 1e+300, not 1" in res.output


@pytest.mark.parametrize("q,lam,message", [
    ("-0.5,1.5", "1,1", "entry below 0"),
    ("0.5,0.7", "2,1", "sums to 1.2, not 1"),
])
def test_sanov_rejects_q_that_is_not_a_distribution(runner, q, lam, message):
    res = runner.invoke(main, ["sanov", "--q", q, "--type", lam])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert message in res.output


def test_sanov_length_mismatch_exits_2(runner):
    res = runner.invoke(main, ["sanov", "--q", "0.5,0.5", "--type", "3,1,1"])
    assert res.exit_code == 2


def test_spectral_dist_csv_sums_to_one(runner):
    res = runner.invoke(main, ["spectral-dist", "--spec", "0.7,0.3", "-n", "4"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "l1,l2,prob"
    rows = [line.split(",") for line in lines[1:]]
    assert sum(float(r[-1]) for r in rows) == pytest.approx(1.0, abs=1e-9)
    assert all(int(r[0]) >= int(r[1]) for r in rows)


def test_spectral_dist_of_the_maximally_mixed_ququart_sums_to_one(runner):
    """Thirteen copies of 1/4: shapes past 12 boxes at equal eigenvalues."""
    res = runner.invoke(main, ["spectral-dist", "--spec", "0.25,0.25,0.25,0.25",
                               "--copies", "13"])
    assert res.exit_code == 0, res.output
    rows = [line.split(",") for line in res.output.strip().splitlines()[1:]]
    assert sum(float(r[-1]) for r in rows) == pytest.approx(1.0, abs=1e-12)


def test_spectral_dist_past_float_range_exits_2(runner):
    """Schur values past float range round to inf and fail the mass check:
    exit 2, not an OverflowError traceback with exit 1."""
    res = runner.invoke(main, ["spectral-dist", "--spec", "1e300,1", "-n", "2"])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "distribution mass inf is not 1" in res.output


def test_density_curve_csv_and_joint_mode(runner, tmp_path):
    res = runner.invoke(main, ["density", "--eigs", "0.8,0.2", "--points", "200"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "x,f"
    assert len(lines) == 203
    body = [float(line.split(",")[1]) for line in lines[1:]]
    # qubit curve is flat at 1/(l1 - l2) inside the support
    assert max(body) == pytest.approx(1 / 0.6, rel=1e-12)

    x = _write_op(tmp_path / "x.json", [("A", 2)],
                  np.array([[0.0, 1.0], [1.0, 0.0]]))
    z = _write_op(tmp_path / "z.json", [("A", 2)], np.diag([1.0, -1.0]))
    joint = runner.invoke(main, ["density", "--pair-a", x, "--pair-b", z,
                                 "--at", "0.0,0.0"])
    assert joint.exit_code == 0
    assert json.loads(joint.output)["value"] == pytest.approx(1 / (2 * math.pi))


@pytest.mark.parametrize("args, points, span", [
    (["--eigs", "0.5,0.3,0.2", "--mults", "1,2,1"], 50, 0.3),
    (["--eigs", "0.8,0.5,0.1"], 20, 0.7)])
def test_density_on_a_coarse_grid_checks_its_mass_on_a_fine_one(runner, args, points, span):
    # the trapezoid sums of these coarse grids miss 1 by 1.5e-4 and 1.9e-3
    res = runner.invoke(main, ["density", *args, "--points", str(points)])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert len(lines) == points + 3
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs[1] - xs[0] == pytest.approx(span / points)


def test_density_requires_a_mode(runner):
    assert runner.invoke(main, ["density"]).exit_code == 2


@pytest.mark.parametrize("points", ["0", "-3"])
def test_density_rejects_an_empty_grid_as_usage_error(runner, points):
    res = runner.invoke(main, ["density", "--eigs", "0.8,0.2", "--points", points])
    assert res.exit_code == 2
    assert f"need at least one grid point, got npoints={points}" in res.output


@pytest.mark.parametrize("bins", ["0", "-1"])
def test_toy_xz_rejects_fewer_than_one_bin_as_usage_error(runner, bins):
    # -1 ended in an IndexError (exit 1); 0 printed only the header
    res = runner.invoke(main, ["toy-xz", "-m", "2", "--bins", bins])
    assert res.exit_code == 2
    assert f"--bins must be >= 1, got {bins}" in res.output


def test_toy_xz_exact_and_sampled(runner):
    res = runner.invoke(main, ["toy-xz", "-m", "2", "--exact"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["corner_prob"] == pytest.approx(13 / 120)
    assert doc["balanced_bound"] == pytest.approx(0.25)

    a = runner.invoke(main, ["toy-xz", "-m", "3", "--trials", "500", "--seed", "5"])
    b = runner.invoke(main, ["toy-xz", "-m", "3", "--trials", "500", "--seed", "5"])
    assert a.exit_code == 0
    assert a.output == b.output  # byte-identical for a fixed seed
    header, *rows = a.output.strip().splitlines()
    assert header == "x_lo,x_hi,z_lo,z_hi,count"
    assert sum(int(r.rsplit(",", 1)[1]) for r in rows) == 500


def test_born_ratio_command(runner, tmp_path):
    p = _write_op(tmp_path / "p.json", [("A", 3)], np.diag([1.0, 1.0, 0.0]))
    q = _write_op(tmp_path / "q.json", [("A", 3)], np.diag([0.0, 0.0, 1.0]))
    res = runner.invoke(main, ["born-ratio", p, q, "-n", "5"])
    assert res.exit_code == 0
    assert float(res.output) == pytest.approx(1 / 8)


def test_biriffle_command_emits_bound_for_pairs(runner, tmp_path):
    x1 = _write_op(tmp_path / "x1.json", [("V", 2)], np.diag([1.0, 0.0]))
    x2 = _write_op(tmp_path / "x2.json", [("V", 2)], np.diag([0.0, 1.0]))
    res = runner.invoke(main, ["biriffle", x1, x2, "-d", "2"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["bound_ok"] is True
    assert doc["value"] > 0


def test_biriffle_of_the_maximally_mixed_three_qubit_pair(runner, tmp_path):
    # I/8 commutes with every slot permutation but reaches outside the
    # symmetric subspace: the uncompressed coset sum printed 0.05625
    x = _write_op(tmp_path / "x.json", [(f"Q{i}", 2) for i in range(3)], np.eye(8) / 8)
    res = runner.invoke(main, ["biriffle", x, x, "-d", "2"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["value"] == pytest.approx(0.015625, abs=1e-12)
    assert doc["bound_ok"] is True


def test_biriffle_has_no_symmetrize_flag(runner, tmp_path):
    x = _write_op(tmp_path / "x.json", [("Q0", 2), ("Q1", 2)], np.eye(4) / 4)
    res = runner.invoke(main, ["biriffle", x, x, "-d", "2", "--symmetrize"])
    assert res.exit_code == 2, res.output
    assert "unrecognized arguments: --symmetrize" in res.output


def test_biriffle_pair_runs_the_coset_sum_once(runner, tmp_path, monkeypatch):
    import qrealize.symmetrizer as symmetrizer_mod
    from qrealize.partitions import double_cosets

    calls = []

    def counted(n, k):
        calls.append((n, k))
        return double_cosets(n, k)

    monkeypatch.setattr(symmetrizer_mod, "double_cosets", counted)
    rng = np.random.default_rng(4)
    m = rng.normal(size=(4, 4))
    x1 = _write_op(tmp_path / "x1.json", [("Q0", 2), ("Q1", 2)], m @ m.T)
    x2 = _write_op(tmp_path / "x2.json", [("Q0", 2), ("Q1", 2)], np.eye(4) / 4)
    res = runner.invoke(main, ["biriffle", x1, x2, "-d", "2"])
    assert res.exit_code == 0, res.output
    assert calls == [(2, 2)]
    assert json.loads(res.output)["value"] == pytest.approx(
        symmetrizer_mod.biriffle_bruteforce([m @ m.T, np.eye(4) / 4], 2), rel=1e-12)


def test_biriffle_on_eight_qubit_slots_runs(runner, tmp_path):
    # the bound's symmetric trace takes the isometry onto the 9 occupation types
    x = _write_op(tmp_path / "x.json", [(f"Q{i}", 2) for i in range(8)], np.eye(256) / 256)
    res = runner.invoke(main, ["biriffle", x, x, "--dim", "2"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["bound_ok"] is True


def test_biriffle_symmetrize_on_ten_qubit_slots_runs(runner, tmp_path):
    # 10 qubit slots: 10! permutations exceed the permutation cap, which the
    # symmetric compression every input gets does not need; the file is
    # written directly, since the tests' writer is slow at 1024^2
    from qrealize.symmetrizer import biriffle_value, symmetrize_operator

    rng = np.random.default_rng(10)
    mat = rng.integers(-3, 4, size=(1024, 1024))
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"labels": [[f"Q{i}", 2] for i in range(10)],
                             "re": (mat + mat.T).tolist()}))
    res = runner.invoke(main, ["biriffle", str(x), str(x), "--dim", "2"])
    assert res.exit_code == 0, res.output
    sym = symmetrize_operator(mat + mat.T, 2)
    assert json.loads(res.output)["value"] == pytest.approx(biriffle_value([sym, sym], 2),
                                                            rel=1e-12)


def test_biriffle_takes_no_budget_flags(runner, tmp_path):
    x = _write_op(tmp_path / "x.json", [(f"Q{i}", 2) for i in range(3)], np.eye(8) / 8)
    for flag in ("--budget-perms", "--budget-dim"):
        res = runner.invoke(main, ["biriffle", x, x, "--dim", "2", flag, "6"])
        assert res.exit_code == 2, res.output
        assert f"unrecognized arguments: {flag}" in res.output


def test_capacity_command(runner, tmp_path):
    payload = {"weights": [[1], [-1]], "amplitudes": {"re": [2.0, 0.5]}}
    path = tmp_path / "rep.json"
    write_json(str(path), payload)
    res = runner.invoke(main, ["capacity", str(path)])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["capacity"] == pytest.approx(math.sqrt(2 * 2.0 * 0.5))
    assert doc["unbounded"] is False

    bad = tmp_path / "bad.json"
    write_json(str(bad), {"weights": [[1]]})
    assert runner.invoke(main, ["capacity", str(bad)]).exit_code == 2


def test_capacity_command_rejects_an_im_of_another_shape(runner, tmp_path):
    # broadcast, the one-entry im would add 1j to every amplitude and exit 0
    path = tmp_path / "rep.json"
    write_json(str(path), {"weights": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                           "amplitudes": {"re": [1, 0.5, 2, 1], "im": [1]}})
    res = runner.invoke(main, ["capacity", str(path)])
    assert res.exit_code == 2, res.output
    assert '"im" has shape (1,), but "re" has shape (4,)' in res.output


def test_operator_file_with_an_im_of_another_shape_exits_2(runner, tmp_path):
    # broadcast, a scalar im would put 0.25j in every entry
    path = tmp_path / "x.json"
    write_json(str(path), {"labels": [["A", 2]], "re": [[0.5, 0], [0, 0.5]], "im": 0.25})
    res = runner.invoke(main, ["biriffle", str(path), "--dim", "2"])
    assert res.exit_code == 2, res.output
    assert '"im" has shape (), but "re" has shape (2, 2)' in res.output


def test_arithmetic_error_exits_2_with_its_message(runner, tmp_path):
    # a non-Hermitian operator next to its real part: the biriffle sum is not real
    mat = np.full((4, 4), 0.125j) + np.diag([0.2, 0.2, 0.3, 0.3])
    x2 = _write_op(tmp_path / "x2.json", [("Q", 2), ("R", 2)], mat)
    x0 = _write_op(tmp_path / "x0.json", [("Q", 2), ("R", 2)], mat.real)
    res = runner.invoke(main, ["biriffle", x2, x0, "--dim", "2"])
    assert res.exit_code == 2, res.output
    assert "Error: biriffle sum has non-real value" in res.output


def test_capacity_command_rejects_fractional_weight(runner, tmp_path):
    path = tmp_path / "rep.json"
    write_json(str(path), {"weights": [[0.5], [-1]], "amplitudes": {"re": [1, 1]}})
    res = runner.invoke(main, ["capacity", str(path)])
    assert res.exit_code == 2
    assert "weight [0.5] is not an integer vector" in res.output


def test_capacity_command_rejects_fractional_block_size(runner, tmp_path):
    path = tmp_path / "rep.json"
    # truncated to 1, the block would match the two amplitudes and exit 0
    write_json(str(path), {"weights": [[1], [-1]], "amplitudes": {"re": [1, 1]},
                           "blocks": [1.7, 1]})
    res = runner.invoke(main, ["capacity", str(path)])
    assert res.exit_code == 2
    assert "block size 1.7 is not an integer" in res.output


@pytest.mark.parametrize("args,message", [
    (["toy-xz", "--exact", "-m", "0"], "m must be >= 1"),
    (["toy-xz", "-m", "0"], "m must be >= 1"),
    (["spectral-dist", "--spec", "0.5,0.5", "-n", "-1"], "need n >= 0"),
    (["spectral-dist", "--spec", "inf,0.5", "-n", "4"], "coordinate inf is not finite"),
    (["qmp", "ortho", "AB", "AC", "BC", "--rank", "0"], "orthogonal-solution count v=0"),
    (["qmp", "check", "AB", "AC", "BC", "--level", "0"], "level n must be >= 1, got 0"),
    (["qmp", "ortho", "AB", "AC", "BC", "--rank", "1", "--level", "0"],
     "level n must be >= 1, got 0"),
], ids=["toy-xz-exact", "toy-xz", "spectral-dist", "spectral-dist-inf", "qmp-ortho", "qmp-check", "qmp-ortho-level"])
def test_library_value_error_is_a_usage_error(tmp_path, args, message):
    """Exit 1 means a certified violation; a rejected input exits 2."""
    args = [_singlet_pair(tmp_path / f"{a}.json", *a) if a in ("AB", "AC", "BC") else a
            for a in args]
    proc = _fresh_python("-m", "qrealize.cli", *args)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_failed_allocation_is_a_budget_stop(runner, monkeypatch):
    """A MemoryError exits 3 like a budget cap, not 1 (the VIOLATED code)."""
    import qrealize.toy_xz

    def exhausted(m):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setattr(qrealize.toy_xz, "toy_xz_exact_bounds", exhausted)
    res = runner.invoke(main, ["toy-xz", "--exact", "-m", "2"])
    assert res.exit_code == 3
    assert "resource budget exceeded: could not allocate (Unable to allocate 1.00 TiB)" \
        in res.output
    assert "Traceback" not in res.output


def test_budget_exhaustion_exits_3(runner, tmp_path):
    ab = _mixed_pair(tmp_path / "ab.json", "A", "B")
    bc = _mixed_pair(tmp_path / "bc.json", "B", "C")
    res = runner.invoke(main, ["qmp", "check", ab, bc, "--level", "3",
                               "--budget-perms", "10"])
    assert res.exit_code == 3
    assert "budget" in res.output


def test_env_prefix_feeds_options(runner, tmp_path):
    ab = _ghz_pair(tmp_path / "ab.json", "A", "B")
    bc = _ghz_pair(tmp_path / "bc.json", "B", "C")
    res = runner.invoke(main, ["qmp", "check", ab, bc],
                        env={"QREALIZE_QMP_CHECK_LEVEL": "2"})
    assert res.exit_code == 0
    assert json.loads(res.output)["level"] == 2


@pytest.mark.parametrize("env,args,shots", [
    ({"QREALIZE_TOY_XZ_SHOTS": "3"}, ["--exact"], "3"),
    ({"QREALIZE_TOY_XZ_SHOTS": "3"}, ["--exact", "-m", "2"], "2"),     # the flag wins
    ({"QREALIZE_TOY_XZ_SHOTS": "3", "QREALIZE_TOY_XZ_EXACT": "1"}, [], "3"),
])
def test_env_sets_toy_xz_shots_and_a_flag_overrides_it(runner, env, args, shots):
    res = runner.invoke(main, ["toy-xz", *args], env=env)
    assert res.exit_code == 0, res.output
    assert res.output == runner.invoke(main, ["toy-xz", "--exact", "-m", shots]).output


def test_env_satisfies_the_required_ortho_rank(runner, tmp_path):
    ab = _singlet_pair(tmp_path / "ab.json", "A", "B")
    ac = _singlet_pair(tmp_path / "ac.json", "A", "C")
    bc = _singlet_pair(tmp_path / "bc.json", "B", "C")
    res = runner.invoke(main, ["qmp", "ortho", ab, ac, bc],
                        env={"QREALIZE_QMP_ORTHO_RANK": "1"})
    assert res.exit_code == 1, res.output
    assert json.loads(res.output)["verdict"] == "VIOLATED"
    bad = runner.invoke(main, ["qmp", "ortho", ab, ac, bc],
                        env={"QREALIZE_QMP_ORTHO_RANK": "one"})
    assert bad.exit_code == 2
    assert "Invalid value for '--rank': 'one' is not a valid integer." in bad.output


def test_options_may_follow_positional_arguments(runner, tmp_path):
    ab = _mixed_pair(tmp_path / "ab.json", "A", "B")
    bc = _mixed_pair(tmp_path / "bc.json", "B", "C")
    res = runner.invoke(main, ["qmp", "check", ab, "--level", "2", bc])
    assert res.exit_code == 1, res.output
    assert json.loads(res.output)["level"] == 2


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_input_path_that_is_no_file_exits_2_before_any_work(runner, tmp_path, where):
    good = _mixed_pair(tmp_path / "ab.json", "A", "B")
    bad = tmp_path / "nothing.json"
    if where == "directory":
        bad.mkdir()
    res = runner.invoke(main, ["qmp", "check", good, str(bad)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    message = "does not exist" if where == "missing" else "is a directory"
    assert f"Invalid value for 'MARGINALS...': File '{bad}' {message}." in res.output


def test_out_directory_exits_2_before_any_work(runner, tmp_path):
    res = runner.invoke(main, ["toy-xz", "--exact", "-m", "2", "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert f"Invalid value for '--out': File '{tmp_path}' is a directory." in res.output
    assert "corner_prob" not in res.output


def test_main_returns_on_success_and_raises_the_exit_code(tmp_path, capsys):
    """The contract of a batch driver that calls ``main`` in its own process."""
    assert main(args=["toy-xz", "--exact", "-m", "2"], prog_name="qrealize") is None
    ab = _singlet_pair(tmp_path / "ab.json", "A", "B")
    ac = _singlet_pair(tmp_path / "ac.json", "A", "C")
    bc = _singlet_pair(tmp_path / "bc.json", "B", "C")
    for args, code in [(["qmp", "witness3", ab, ac, bc], 1),
                       (["toy-xz", "--exact", "-m", "0"], 2),
                       (["qmp", "check", ab, bc, "--level", "3", "--budget-perms", "10"], 3)]:
        with pytest.raises(SystemExit) as exc:
            main(args=args, prog_name="qrealize")
        assert exc.value.code == code, args
    err = capsys.readouterr().err
    assert "Try 'qrealize toy-xz -h' for help." in err
    assert "resource budget exceeded" in err


def test_outputs_are_byte_identical_across_runs(runner, tmp_path):
    ab = _singlet_pair(tmp_path / "ab.json", "A", "B")
    ac = _singlet_pair(tmp_path / "ac.json", "A", "C")
    bc = _singlet_pair(tmp_path / "bc.json", "B", "C")
    one = runner.invoke(main, ["qmp", "check", ab, ac, bc])
    two = runner.invoke(main, ["qmp", "check", ab, ac, bc])
    assert one.output == two.output
    assert json.loads(one.output)["verdict"] == "VIOLATED"


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(lang):
    text = README.read_text(encoding="utf-8")
    return text.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _readme_operator(path, names, mat):
    """The README's operator JSON, placeholders filled, labels renamed."""
    text = _readme_block("json")
    assert '"labels": [["A", 2], ["B", 2]]' in text
    text = text.replace('["A", 2], ["B", 2]', f'["{names[0]}", 2], ["{names[1]}", 2]')
    text = text.replace('"re": [[...], ...]', f'"re": {json.dumps(mat.real.tolist())}')
    text = text.replace('"im": [[...], ...]', f'"im": {json.dumps(mat.imag.tolist())}')
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("mat,code,verdict", [
    (np.eye(4) / 4, 1, "VIOLATED"),
    (np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex), 0, "CONSISTENT_AT_LEVEL"),
])
def test_readme_check_example_runs_as_written(runner, tmp_path, monkeypatch, mat, code,
                                              verdict):
    monkeypatch.chdir(tmp_path)
    _readme_operator(tmp_path / "rho_ab.json", "AB", mat)
    _readme_operator(tmp_path / "rho_bc.json", "BC", mat)
    res = runner.invoke(main, ["qmp", "check", "rho_ab.json", "rho_bc.json",
                               "--level", "2", "--out", "cert.json"])
    assert res.exit_code == code, res.output
    assert json.loads((tmp_path / "cert.json").read_text())["verdict"] == verdict


def test_readme_library_example_prints_its_comment(capsys):
    exec(compile(_readme_block("python"), str(README), "exec"), {})
    verdict, gap = capsys.readouterr().out.split()
    assert verdict == "VIOLATED"
    assert gap.startswith("-0.1298")


def test_cli_import_does_not_load_scipy():
    """A cold CLI run pays for every import; scipy.sparse alone costs ~0.2 s."""
    code = ("import sys, qrealize.cli; "
            "sys.exit(any(m.startswith('scipy') for m in sys.modules))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def _fresh_python(*args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


_REPORT = ("import atexit, sys; "
           "atexit.register(lambda: print('loaded:', *sys.modules, file=sys.stderr))")


def _loaded_set(proc):
    line = next(l for l in proc.stderr.splitlines() if l.startswith("loaded:"))
    return set(line.split()[1:])


@functools.cache
def _startup_modules():
    return _loaded_set(_fresh_python("-c", _REPORT))


def _loaded(*cli_args):
    """Run the CLI in a fresh process: its result, and the modules it loaded
    beyond those the interpreter's own start-up loads."""
    run = _REPORT + "; import runpy; runpy.run_module('qrealize.cli', run_name='__main__')"
    proc = _fresh_python("-c", run, *cli_args)
    return proc, _loaded_set(proc) - _startup_modules()


def _third_party(modules, allowed=()):
    """The modules outside the standard library, qrealize and ``allowed``."""
    roots = set(sys.stdlib_module_names) | {"qrealize", *allowed}
    return {m for m in modules if m.split(".")[0] not in roots}


def test_toy_xz_exact_runs_without_numpy():
    """toy-xz --exact is pure rational arithmetic; numpy alone costs ~0.14 s
    of a cold process.  The parser and the config are the standard
    library's argparse and NamedTuple, so no third-party package and no
    dataclasses load either."""
    proc, imported = _loaded("toy-xz", "--exact", "-m", "4")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["balanced_bound"] == 0.125
    assert "qrealize.toy_xz" in imported
    assert not _third_party(imported)
    assert "dataclasses" not in imported


def test_qmp_check_loads_no_divergence_layer(tmp_path):
    """A level-1 check never computes a divergence, so a cold process does
    not compile that layer, and loads no third-party package but numpy."""
    ab = _singlet_pair(tmp_path / "ab.json", "A", "B")
    bc = _singlet_pair(tmp_path / "bc.json", "B", "C")
    proc, imported = _loaded("qmp", "check", ab, bc, "--level", "1")
    assert proc.returncode == 0, proc.stderr
    assert "qrealize.qmp" in imported
    assert "qrealize.divergence" not in imported
    assert not _third_party(imported, allowed=("numpy",))


def test_cli_import_loads_no_solver_layer():
    code = ("import json, sys, qrealize.cli; "
            "print(json.dumps([m for m in sys.modules if m.startswith('qrealize')]))")
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0
    loaded = set(json.loads(proc.stdout))
    assert not loaded & {"qrealize.qmp", "qrealize.symmetrizer", "qrealize.capacity"}


def test_package_import_loads_no_submodule():
    code = ("import json, sys, qrealize; "
            "print(json.dumps([m for m in sys.modules if m.startswith('qrealize')]))")
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == ["qrealize"]


# Every name the package exports, by the submodule that defines it.
PACKAGE_API = {
    "capacity": """CapacityResult HullResult OccasionalityTable TorusRep capacity
        fixed_subspace_projector hull_membership kempf_ness moment_map
        occasionality_probe torus_rep""",
    "config": "BUDGET TOL Budgets ResourceBudgetError Tolerances",
    "divergence": """DiagonalizingFrame RatioBound SanovCheck discrimination_constant
        discrimination_ratio_bound discrimination_sequence gen_power keyl_divergence
        kl_divergence leading_principal_minors multinomial_mass
        quantum_relative_entropy sanov_bounds_check spectrum_of""",
    "estimation": """DensityCurve ToyXZBounds TypeDistribution born_ratio compositions
        density_curve density_degenerate density_nondegenerate density_qubit_pair
        multinomial_type_dist spectral_dist toy_xz_exact_bounds
        toy_xz_exact_fractions toy_xz_simulate""",
    "jsonio": "dumps format_float loads operator_from_json",
    "partitions": """Partition all_cycle_types approx_partition conjugacy_class_size
        coset_cardinality coset_representative cumulative cycle_type double_cosets
        finite_difference littlewood_richardson mn_character partitions_of
        schur_polynomial specht_dim weyl_dim""",
    "qmp": """VERDICT_CONSISTENT VERDICT_VIOLATED BipartiteResult LRRow
        MarginalScenario MProductState RealizabilityCertificate bipartite_check
        hierarchy_check lr_inequality_check marginals_of
        ortho_bound_check scenario subspace_hierarchy_check three_qubit_witness""",
    "symmetrizer": """SlotLayout WiringOperator WiringSum bibiriffle_lower_bound
        biriffle_bruteforce biriffle_value isotypic_band_weight isotypic_projector
        scenario_layout sym_projector symmetrize_operator traced_permutation
        traced_permutation_sum traced_symmetrizer uniform_sym_state""",
    "tensor": """DensityOperator LabeledSpace Operator PureState apply_slot_permutation
        haar_random_density haar_random_pure haar_random_pure_on identity kron
        partial_trace power_space qubits space trace_with_permutation""",
}


def test_lazy_package_exports_the_same_objects():
    import importlib

    import qrealize

    names = []
    for module, text in PACKAGE_API.items():
        mod = importlib.import_module(f"qrealize.{module}")
        for name in text.split():
            assert getattr(qrealize, name) is getattr(mod, name), name
            names.append(name)
    assert len(names) == 109
    assert sorted(qrealize.__all__) == sorted(names)
    # the package's table is the one export list
    assert not any(hasattr(importlib.import_module(f"qrealize.{m}"), "__all__")
                   for m in qrealize._EXPORTS)
    assert set(names) <= set(dir(qrealize))
    assert callable(qrealize.capacity)    # the function, not the submodule
    from qrealize import jsonio, qmp
    assert qmp.hierarchy_check is qrealize.hierarchy_check
    assert jsonio.dumps is qrealize.dumps
    assert qrealize.__version__ == "0.1.0"
