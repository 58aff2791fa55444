import dataclasses
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from twistr import cli, jimbo, liealg, qrep, tensor, tpg
from twistr.cli import SCHEMA, main
from twistr.scalars import BracketProduct, PoleError, QSample
from twistr.tensor import DecompositionError

from oracles import bump


def run(tmp_path, *argv):
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / "out.json"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


class TestVerify:
    def test_seed_pair_full_pipeline(self, tmp_path):
        code, out = run(tmp_path, "verify", "--family", "a2even", "--l", "2",
                        "--k", "1", "--r", "1", "--seed", "7", "--samples", "3")
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == SCHEMA and report["ok"]
        stages = {s["stage"]: s for s in report["stages"]}
        assert set(stages) == {"relations", "decomposition", "graph",
                               "eigenvalues", "solve", "yang-baxter",
                               "unitarity", "parity", "spectral-agreement"}
        assert len(stages["yang-baxter"]["certificates"]) == 3
        assert all(s["ok"] for s in report["stages"])

    def test_non_seed_pair_skips_solve(self, tmp_path):
        code, out = run(tmp_path, "verify", "--family", "d2", "--l", "2",
                        "--k", "1", "--r", "2", "--samples", "1")
        assert code == 0
        report = json.loads(out.read_text())
        stages = {s["stage"]: s for s in report["stages"]}
        assert stages["graph"]["ok"] and stages["eigenvalues"]["ok"]
        for name in ("solve", "yang-baxter", "unitarity", "parity",
                     "spectral-agreement"):
            assert stages[name]["skipped"] == "non-seed pair"

    def test_rank_validation(self, capsys):
        assert main(["verify", "--family", "a2odd", "--l", "2"]) == 2
        assert "l >= 3" in capsys.readouterr().err

    def test_verify_has_no_mode(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "a2even", "--l", "1",
                  "--mode", "numeric"])
        assert exc.value.code == 2
        _, out = run(tmp_path, "verify", "--family", "a2even", "--l", "1",
                     "--samples", "1")
        assert "mode" not in json.loads(out.read_text())["config"]

    def test_verify_has_no_format(self):
        """verify writes only its JSON report, so --format is refused."""
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "a2even", "--l", "1",
                  "--format", "dot"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_rejected(self, samples):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "a2even", "--l", "1",
                  "--samples", samples])
        assert exc.value.code == 2

    def test_parameter_validation(self, capsys):
        assert main(["verify", "--family", "a2even", "--l", "2",
                     "--k", "2", "--r", "5"]) == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "a2even", "--l", "3", "--k", "2"],
        ["verify", "--family", "d2", "--l", "2", "--r", "2"],
        ["export", "graph", "--family", "d2", "--l", "2", "--r", "3"],
    ], ids=["verify-k", "verify-r", "export-r"])
    def test_lone_weight_parameter_refused(self, argv, capsys):
        """One of --k, --r without the other is refused, not replaced by
        the seed pair."""
        assert main(argv) == 2
        assert "--k and --r" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--a", "--b"])
    def test_no_a_b_aliases(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "d2", "--l", "2", flag, "1"])
        assert exc.value.code == 2

    def test_default_params_are_seed(self, tmp_path):
        code, out = run(tmp_path, "verify", "--family", "d2", "--l", "2",
                        "--samples", "1")
        assert code == 0
        assert json.loads(out.read_text())["config"]["params"] == [1, 1]

    def test_determinism(self, tmp_path):
        args = ("verify", "--family", "a2even", "--l", "1", "--seed", "5",
                "--samples", "2")
        _, a = run(tmp_path / "a", *args)
        _, b = run(tmp_path / "b", *args)
        assert a.read_bytes() == b.read_bytes()

    def test_retry_draws_a_new_sample(self, tmp_path, monkeypatch):
        args = ("verify", "--family", "a2even", "--l", "1", "--seed", "3",
                "--samples", "2")
        _, plain = run(tmp_path / "a", *args)
        real = jimbo.check_unitarity
        seen = []

        def pole_on_first_sample(rep, qs, u):
            seen.append((qs.w, u))
            if len(seen) == 1:
                raise PoleError(1, 1)
            return real(rep, qs, u)

        monkeypatch.setattr(jimbo, "check_unitarity", pole_on_first_sample)
        code, retried = run(tmp_path / "b", *args)
        assert code == 0
        stages = [{s["stage"]: s for s in json.loads(out.read_text())["stages"]}
                  for out in (plain, retried)]
        before, after = (s["unitarity"]["certificates"] for s in stages)
        assert stages[1]["unitarity"]["ok"] and len(seen) == 3
        assert seen[1] != seen[0]
        assert (after[0]["w"], after[0]["u"]) == tuple(map(str, seen[1]))
        assert after[0]["u"] != before[0]["u"]
        assert after[1] == before[1]

    def test_degenerate_component_system_is_retried(self, tmp_path,
                                                    monkeypatch):
        """With no e0 rows at the first sample's w, the small system there
        has nullity >= 2, so every solve at that w raises SolveError; each
        retry draws a fresh sample, which the report records."""
        args = ("verify", "--family", "a2even", "--l", "1", "--seed", "3",
                "--samples", "1")
        _, plain = run(tmp_path / "a", *args)
        first = next(s for s in json.loads(plain.read_text())["stages"]
                     if s["stage"] == "solve")["solves"][0]
        w0, u0 = (Fraction(first[k]) for k in ("w", "u"))
        real = jimbo.component_system

        def no_e0_rows_at_w0(shared, qs):
            system = real(shared, qs)
            if qs.w == w0:
                system.e0_rows = []
            return system

        monkeypatch.setattr(jimbo, "component_system", no_e0_rows_at_w0)
        shared = jimbo.Shared(liealg.family_spec("a2even", 1))
        with pytest.raises(jimbo.SolveError, match="nullity"):
            jimbo.solve_rmatrix(shared, QSample(w0), u0)
        code, retried = run(tmp_path / "b", *args)
        assert code == 0
        after = {s["stage"]: s for s in json.loads(retried.read_text())["stages"]}
        record = after["solve"]["solves"][0]
        assert Fraction(record["w"]) != w0 and record["nullity"] == 1
        assert all(Fraction(c["w"]) != w0
                   for c in after["yang-baxter"]["certificates"])

    def test_certificate_failure_fails_the_stage_at_once(self, tmp_path,
                                                         monkeypatch):
        """A refused certificate is no failure of the sample: with one entry
        of X changed at the first sample's w, so that X no longer commutes
        with D(f_1), every stage that reads a solve fails after one solve
        attempt with the certificate's message, instead of retrying at
        fresh samples, which would pass."""
        w0 = jimbo.sample_w(random.Random(3))
        real_split, real_solve = jimbo._e0_split, jimbo.solve_rmatrix
        solves = []

        def changed_at_w0(rep, qs):
            x, y = real_split(rep, qs)
            if qs.w == w0:
                p = min(x)
                x = bump(x, p, min(x[p]))
            return x, y

        def counted(shared, qs, u):
            solves.append(qs.w)
            return real_solve(shared, qs, u)

        monkeypatch.setattr(jimbo, "_e0_split", changed_at_w0)
        monkeypatch.setattr(jimbo, "solve_rmatrix", counted)
        code, out = run(tmp_path, "verify", "--family", "a2even", "--l", "1",
                        "--seed", "3", "--samples", "1")
        assert code == 1
        stages = {s["stage"]: s for s in json.loads(out.read_text())["stages"]}
        error = "CertificateError: X does not commute with D(f_1)"
        readers = ["solve", "yang-baxter", "unitarity", "parity",
                   "spectral-agreement"]
        for name in readers:
            assert stages[name] == {"stage": name, "ok": False,
                                    "error": error}
        assert solves == [w0] * len(readers)

    def test_decomposition_error_fails_the_stage(self, tmp_path,
                                                 monkeypatch):
        """A DecompositionError is no failure of the sample: raised once
        while the parity stage reads Rcheck(0), it fails that stage, with
        the error in the report, instead of being retried at a fresh
        sample."""
        real = jimbo.parity_spectrum
        calls = []

        def fails_once(shared, qs):
            calls.append(1)
            if len(calls) == 1:
                raise DecompositionError("injected")
            return real(shared, qs)

        monkeypatch.setattr(jimbo, "parity_spectrum", fails_once)
        code, out = run(tmp_path, "verify", "--family", "a2even", "--l", "1",
                        "--seed", "3", "--samples", "1")
        assert code == 1 and len(calls) == 1
        stages = {s["stage"]: s for s in json.loads(out.read_text())["stages"]}
        assert stages["parity"] == {"stage": "parity", "ok": False,
                                    "error": "DecompositionError: injected"}
        assert all(s["ok"] for name, s in stages.items() if name != "parity")

    @pytest.mark.parametrize("change", ["dropped", "renamed"])
    def test_changed_component_fails_the_decomposition_stage(
            self, tmp_path, monkeypatch, change):
        """The decomposition stage compares the components of V (x) V with
        the graph's nodes: one component dropped or renamed fails it."""
        real = jimbo.decompose

        def changed(rep, qs):
            dec = real(rep, qs)
            *kept, last = dec.components
            if change == "renamed":
                kept.append(dataclasses.replace(
                    last, nu=tuple(c + 5 for c in last.nu)))
            return dataclasses.replace(dec, components=kept)

        monkeypatch.setattr(jimbo, "decompose", changed)
        code, out = run(tmp_path, "verify", "--family", "d2", "--l", "2",
                        "--seed", "7", "--samples", "1")
        stages = {s["stage"]: s for s in json.loads(out.read_text())["stages"]}
        assert code == 1 and not stages["decomposition"]["ok"]
        assert len(stages["decomposition"]["components"]) == (
            2 if change == "dropped" else 3)

    def test_quantum_relation_failure_fails_the_stage(self, tmp_path,
                                                      monkeypatch):
        """The relations stage checks the quantum relations once, for all
        q: a failing entry of that one report fails the stage and is listed
        once, however many samples the run draws.  relations_checked still
        counts the quantum relations once per sample."""
        real, calls = qrep.check_quantum_relations, []

        def failing(rep):
            calls.append(rep)
            report = real(rep)
            if len(calls) == 2:   # the first check is build_seed_rep's
                report.append({"relation": "injected", "ok": False})
            return report

        args = ["verify", "--family", "a2even", "--l", "1", "--seed", "7"]
        counts = []
        for samples in ("1", "3"):
            code, out = run(tmp_path, *args, "--samples", samples)
            stages = {s["stage"]: s
                      for s in json.loads(out.read_text())["stages"]}
            counts.append(stages["relations"]["relations_checked"])
            assert code == 0
        rep = qrep.build_seed_rep(liealg.family_spec("a2even", 1))
        quantum = len(real(rep))
        assert counts[1] - counts[0] == 2 * quantum
        monkeypatch.setattr(qrep, "check_quantum_relations", failing)
        code, out = run(tmp_path, *args, "--samples", "2")
        stages = {s["stage"]: s for s in json.loads(out.read_text())["stages"]}
        assert code == 1 and len(calls) == 2
        assert stages["relations"]["failures"] == ["injected"]
        assert all(s["ok"] for name, s in stages.items() if name != "relations")

    @pytest.mark.parametrize("samples", ["1", "3"])
    def test_relation_data_built_once_per_verify(self, tmp_path, monkeypatch,
                                                 samples):
        """The relation data is built once per verify, at the seed rep's
        own check, and the relations stage reads it with one more checker
        call, however many samples the run draws."""
        built, checked = [], []
        build, check = qrep._relation_data, qrep.check_quantum_relations

        def counted_build(rep):
            built.append(rep)
            return build(rep)

        def counted_check(rep):
            checked.append(rep)
            return check(rep)

        monkeypatch.setattr(qrep, "_relation_data", counted_build)
        monkeypatch.setattr(qrep, "check_quantum_relations", counted_check)
        code, _ = run(tmp_path, "verify", "--family", "a2odd", "--l", "3",
                      "--seed", "7", "--samples", samples)
        assert code == 0
        assert len(checked) == 2
        assert len(built) == 1 and all(r is built[0] for r in checked)

    @pytest.mark.parametrize("family,l", [("a2even", 1), ("a2odd", 3),
                                          ("d2", 2)])
    def test_kac_generators_built_once_per_verify(self, tmp_path,
                                                  monkeypatch, family, l):
        """A verify builds the Kac generators once: the vector seeds keep
        the ones they were built from for the relations stage, and the
        spinor's classical check builds its own.  Nothing carries over
        from one verify to the next."""
        real, calls = liealg.kac_generators, []

        def counted(spec):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(liealg, "kac_generators", counted)
        args = ["verify", "--family", family, "--l", str(l), "--seed", "7",
                "--samples", "1"]
        assert run(tmp_path, *args)[0] == 0
        assert len(calls) == 1
        assert run(tmp_path, *args)[0] == 0
        assert len(calls) == 2

    def test_flipped_classical_sign_fails_the_parity_stage(self, tmp_path,
                                                           monkeypatch):
        """The parity stage compares the signs of Rcheck(0) with the graph
        parities and with the classical psi^2 signs: one classical sign
        flipped fails it alone."""
        real = tensor.classical_parity_signs

        def flipped(rep):
            signs = real(rep)
            nu = min(signs)
            return {**signs, nu: -signs[nu]}

        monkeypatch.setattr(tensor, "classical_parity_signs", flipped)
        code, out = run(tmp_path, "verify", "--family", "d2", "--l", "2",
                        "--seed", "7", "--samples", "1")
        stages = {s["stage"]: s for s in json.loads(out.read_text())["stages"]}
        assert code == 1 and not stages["parity"]["ok"]
        assert all(s["ok"] for name, s in stages.items() if name != "parity")

    @staticmethod
    def _closed_form_mismatch(tmp_path, monkeypatch, corrupt):
        """Run a d2 l=2 seed verify with ``corrupt`` applied to the factored
        closed forms; only the eigenvalue stage may fail, and it must."""
        def corrupted(spec, params, qs, u=None):
            products = tpg.factored_closed_form(spec, params)
            return tpg.evaluate(corrupt(products), qs, u)

        monkeypatch.setattr(tpg, "eigenvalues_closed_form", corrupted)
        code, out = run(tmp_path, "verify", "--family", "d2", "--l", "2",
                        "--seed", "7", "--samples", "1")
        report = json.loads(out.read_text())
        stages = {s["stage"]: s for s in report["stages"]}
        assert code == 1 and not report["ok"]
        assert not stages["eigenvalues"]["ok"]
        assert stages["eigenvalues"]["closed_form"] == "mismatch"
        assert all(s["ok"] for name, s in stages.items()
                   if name != "eigenvalues")

    def test_extra_closed_form_component_is_a_mismatch(self, tmp_path,
                                                       monkeypatch):
        """A closed form for a component the graph lacks fails the stage,
        although every graph eigenvalue agrees with its closed form."""
        def extra_key(products):
            nu = next(iter(products))
            return {**products, tuple(c + 5 for c in nu): products[nu]}

        self._closed_form_mismatch(tmp_path, monkeypatch, extra_key)

    def test_changed_closed_form_exponent_is_a_mismatch(self, tmp_path,
                                                        monkeypatch):
        """Doubling one exponent of one closed-form product fails the
        stage."""
        def doubled_exponent(products):
            nu, p = next((nu, p) for nu, p in products.items() if p.exps)
            key = min(p.exps)
            exps = {**p.exps, key: 2 * p.exps[key]}
            return {**products, nu: BracketProduct(p.sign, exps)}

        self._closed_form_mismatch(tmp_path, monkeypatch, doubled_exponent)

    def test_shared_work_runs_once_per_call(self, tmp_path, monkeypatch):
        """One verify solves each distinct (w, u) once, builds one graph,
        decomposes and certifies the contravariant form once per distinct w
        and evaluates the recursion once for the eigenvalue stage and once
        per spectral sample; a second identical verify does all of it again,
        so nothing outlives the call."""
        calls = {"solve": [], "decompose": [], "form": [], "graph": [],
                 "recursion": []}

        def counted(name, module, attr, key):
            real = getattr(module, attr)

            def wrapper(*args, **kwargs):
                calls[name].append(key(*args))
                return real(*args, **kwargs)
            monkeypatch.setattr(module, attr, wrapper)

        counted("solve", jimbo, "solve_rmatrix", lambda shared, qs, u: (qs.w, u))
        counted("decompose", jimbo, "decompose", lambda T, qs: qs.w)
        counted("form", jimbo, "contravariant_form", lambda shared, qs: qs.w)
        counted("graph", tpg, "build_graph", lambda spec, params: params)
        counted("recursion", tpg, "eigenvalues_by_recursion",
                lambda graph, qs: qs.w)
        args = ("verify", "--family", "a2even", "--l", "2", "--seed", "7",
                "--samples", "3")
        code, out = run(tmp_path / "a", *args)
        assert code == 0
        first = {k: list(v) for k, v in calls.items()}
        code, again = run(tmp_path / "b", *args)
        assert code == 0 and again.read_bytes() == out.read_bytes()
        assert {k: v[len(first[k]):] for k, v in calls.items()} == first

        stages = {s["stage"]: s for s in json.loads(out.read_text())["stages"]}
        samples = [tuple(Fraction(r[k]) for k in ("w", "u", "v"))
                   for r in stages["yang-baxter"]["certificates"]]
        assert samples[0][:2] == tuple(
            Fraction(stages["solve"]["solves"][0][k]) for k in ("w", "u"))
        ws = {w for w, _, _ in samples}
        w0 = samples[0][0]
        wanted = {(w, x) for w, u, v in samples
                  for x in (u, v, u * v, 1 / u, Fraction(1))}
        wanted.add((w0, Fraction(0)))
        assert len(first["solve"]) == len(set(first["solve"])) == 16
        assert set(first["solve"]) == wanted
        assert len(first["graph"]) == 1
        assert sorted(first["decompose"]) == sorted(ws)
        assert sorted(first["form"]) == sorted(ws)
        spectral = [Fraction(r["w"])
                    for r in stages["spectral-agreement"]["certificates"]]
        assert sorted(first["recursion"]) == sorted([w0] + spectral)

    def test_seed_changes_samples(self, tmp_path):
        _, a = run(tmp_path / "a", "verify", "--family", "a2even", "--l", "1",
                   "--seed", "1", "--samples", "1")
        _, b = run(tmp_path / "b", "verify", "--family", "a2even", "--l", "1",
                   "--seed", "2", "--samples", "1")
        assert a.read_bytes() != b.read_bytes()

    def test_verify_builds_no_fraction_rmatrix(self, tmp_path, monkeypatch):
        """The checks read the c_nu of each solve only: a verify passes with
        the integer form N / D and the Fraction forms of R and Rcheck made
        unreadable, so no verify builds a full Rcheck."""
        def unreadable(self):
            raise AssertionError("R-matrix built in verify")

        for name in ("R", "Rcheck", "N", "D"):
            monkeypatch.setattr(jimbo.RMatrixResult, name,
                                property(unreadable))
        code, out = run(tmp_path, "verify", "--family", "d2", "--l", "2",
                        "--seed", "7", "--samples", "2")
        assert code == 0 and json.loads(out.read_text())["ok"]

    def test_oversized_seed_verify_refused_before_any_work(self, capsys,
                                                           monkeypatch):
        """d2 l=8 (two-site dimension 256**2) exits 2 with its size
        estimate before a Shared, which every stage reads, is built."""
        def no_work(*args, **kwargs):
            raise AssertionError("verify started work")

        monkeypatch.setattr(jimbo, "Shared", no_work)
        assert main(["verify", "--family", "d2", "--l", "8"]) == 2
        err = capsys.readouterr().err
        assert ("d^3 = 16,777,216 (d = 256), T = d^2 = 65,536, 9 components"
                in err)

    def test_oversized_rmatrix_export_refused_before_any_work(
            self, capsys, monkeypatch):
        """An rmatrix export of d2 l=8 exits 2 with the verify's size
        estimate before the Shared of its solve is built."""
        def no_work(*args, **kwargs):
            raise AssertionError("export started work")

        monkeypatch.setattr(jimbo, "Shared", no_work)
        assert main(["export", "rmatrix", "--family", "d2", "--l", "8"]) == 2
        err = capsys.readouterr().err
        assert ("d^3 = 16,777,216 (d = 256), T = d^2 = 65,536, 9 components"
                in err)

    def test_size_guard_bounds(self):
        """The largest size measured to pass, d2 l=7, is accepted, and a
        non-seed pair, which skips the stages on V (x) V, is never
        refused."""
        d2_7, d2_8 = (liealg.family_spec("d2", l) for l in (7, 8))
        assert cli._size_refusal(d2_7, (1, 1)) is None
        assert cli._size_refusal(d2_8, (1, 2)) is None
        assert cli._size_refusal(d2_8, (1, 1)) is not None


class TestExport:
    def test_graph_json(self, tmp_path):
        code, out = run(tmp_path, "export", "graph", "--family", "a2odd",
                        "--l", "3", "--k", "1", "--r", "1")
        assert code == 0
        g = json.loads(out.read_text())
        assert len(g["nodes"]) == 3 and len(g["edges"]) == 2
        parities = {n["weight"]: n["parity"] for n in g["nodes"]}
        assert parities == {"(2,0,0)": 1, "(1,1,0)": -1, "(0,0,0)": -1}

    def test_graph_dot(self, tmp_path):
        code, out = run(tmp_path, "export", "graph", "--family", "a2even",
                        "--l", "2", "--format", "dot")
        assert code == 0
        assert out.read_text().startswith("graph tpg {")

    def test_eigenvalues_symbolic(self, tmp_path):
        code, out = run(tmp_path, "export", "eigenvalues", "--family",
                        "a2even", "--l", "2", "--k", "1", "--r", "1")
        assert code == 0
        table = json.loads(out.read_text())
        assert table["u"] == "u"
        assert table["eigenvalues"]["(2,0)"] == "1"
        assert len(table["eigenvalues"]) == 3

    def test_eigenvalues_numeric_deterministic(self, tmp_path):
        args = ("export", "eigenvalues", "--family", "d2", "--l", "2",
                "--mode", "numeric", "--seed", "9")
        _, a = run(tmp_path / "a", *args)
        _, b = run(tmp_path / "b", *args)
        assert a.read_bytes() == b.read_bytes()

    def test_rmatrix_sparse_json(self, tmp_path):
        code, out = run(tmp_path, "export", "rmatrix", "--family", "a2even",
                        "--l", "1", "--seed", "2")
        assert code == 0
        r = json.loads(out.read_text())
        assert r["dim"] == 9 and r["nullity"] == 1
        # weight conservation leaves at most 3 + 3*2 + ... nonzeros; spot check
        assert all(len(t) == 3 for t in r["R"])

    def test_rmatrix_requires_seed_pair(self, capsys):
        assert main(["export", "rmatrix", "--family", "d2", "--l", "2",
                     "--k", "1", "--r", "2"]) == 2

    def test_rep_requires_seed_pair(self, capsys):
        assert main(["export", "rep", "--family", "d2", "--l", "2",
                     "--k", "2", "--r", "3"]) == 2
        assert "rep export requires the seed pair" in capsys.readouterr().err

    def test_rep_json(self, tmp_path):
        code, out = run(tmp_path, "export", "rep", "--family", "d2", "--l", "2")
        assert code == 0
        r = json.loads(out.read_text())
        assert r["dim"] == 4 and len(r["e"]) == 3
        assert r["highest_weight"] == "(1/2,1/2)"

    def test_samples_refused(self):
        with pytest.raises(SystemExit) as exc:
            main(["export", "graph", "--family", "a2even", "--l", "2",
                  "--samples", "3"])
        assert exc.value.code == 2

    def test_mode_only_for_eigenvalues(self, tmp_path, capsys):
        """--mode is refused by the objects it does not apply to; left out,
        it reads as symbolic-u."""
        for what in ("graph", "rmatrix", "rep"):
            assert main(["export", what, "--family", "d2", "--l", "2",
                         "--mode", "numeric"]) == 2
            assert f"{what} export takes no --mode" in \
                capsys.readouterr().err
        args = ("export", "eigenvalues", "--family", "d2", "--l", "2")
        _, plain = run(tmp_path / "a", *args)
        _, symbolic = run(tmp_path / "b", *args, "--mode", "symbolic-u")
        assert plain.read_bytes() == symbolic.read_bytes()

    def test_unsupported_format(self, capsys):
        assert main(["export", "eigenvalues", "--family", "a2even", "--l", "2",
                     "--format", "dot"]) == 2

    @pytest.mark.parametrize("what", ["rmatrix", "rep"])
    @pytest.mark.parametrize("fmt", ["dot", "text"])
    def test_seed_exports_are_json_only(self, what, fmt, capsys):
        assert main(["export", what, "--family", "d2", "--l", "2",
                     "--format", fmt]) == 2
        assert f"{what} export supports json" in capsys.readouterr().err


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_family(self):
        with pytest.raises(SystemExit):
            main(["verify", "--family", "e8", "--l", "8"])


class TestModuleEntryPoint:
    """``python -m twistr`` runs ``cli.main`` and exits with its code."""

    @staticmethod
    def run_module(*argv):
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, path]) if path else src}
        return subprocess.run([sys.executable, "-m", "twistr", *argv],
                              capture_output=True, env=env, timeout=120)

    def test_export_matches_main(self, capsys):
        argv = ["export", "rep", "--family", "d2", "--l", "2"]
        proc = self.run_module(*argv)
        assert proc.returncode == 0, proc.stderr
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out.encode()

    def test_refusal_exit_code(self):
        proc = self.run_module("verify", "--family", "d2", "--l", "2",
                               "--k", "1")
        assert proc.returncode == 2
        assert b"--k and --r" in proc.stderr
