"""Margin reports: identities, theorem margins, gates, determinism."""

import dataclasses
import json
import re
from fractions import Fraction

import pytest

import vlab.boxscan as boxscan
import vlab.paramgeom as paramgeom
import vlab.verify as verify
from vlab.bestapprox import best_approx_sequence, derive_exponents
from vlab.bestapprox.records import BestApproxRecord, SequenceData
from vlab.bounds import beta, theta
from vlab.cli import run
from vlab.enclosure import RealEnclosure
from vlab.errors import EmptyInput
from vlab.polyalg import enrich_independence
from vlab.polynomials import IntPolynomial
from vlab.realspec import parse_xi
from vlab.verify import (
    check_jopi,
    check_lemma31,
    check_lemma_2d,
    check_thmA,
    full_report,
    report_json_bytes,
)

SLACK = Fraction(5, 100)


@pytest.fixture(scope="module")
def cbrt2_report():
    seq = best_approx_sequence(parse_xi("cbrt:2"), 2, 500)
    return full_report(seq), seq


class TestJopi:
    def test_oracle_sequence_all_positive(self, cbrt2_report):
        report, _ = cbrt2_report
        for r in report.results:
            if r.check_id.startswith("jopi"):
                assert r.applicable and r.margin.lo() >= 0

    def test_single_record_inapplicable(self):
        seq = best_approx_sequence(parse_xi("sqrt:2"), 1, 2)
        results = check_jopi(seq)
        assert len(results) == 1 and not results[0].applicable

    def test_corrupted_fixture_flags_negative(self):
        seq = derive_exponents(best_approx_sequence(parse_xi("sqrt:2"), 1, 20))
        # swap the stored values of two records: the value margin goes negative
        bad = dataclasses.replace(seq)
        bad.records = [dataclasses.replace(r) for r in seq.records]
        bad.records[1].log_abs_value, bad.records[2].log_abs_value = \
            bad.records[2].log_abs_value, bad.records[1].log_abs_value
        results = check_jopi(bad)
        values = [r for r in results if r.check_id == "jopi-values"]
        assert any(r.margin.hi() < 0 for r in values)


class TestThmA:
    def test_margins_on_good_k(self, cbrt2_report):
        report, seq = cbrt2_report
        margins = [r for r in report.results if r.check_id == "thmA" and r.applicable]
        assert margins, "expected applicable thmA checks"
        for r in margins:
            assert r.margin.lo() > -SLACK

    def test_dirichlet_floor_trivial_case(self):
        # mu_k = n, n = 2 requires tau >= 1, always true
        seq = derive_exponents(best_approx_sequence(parse_xi("cbrt:2"), 2, 100))
        enrich_independence(seq)
        for r in check_thmA(seq, SLACK):
            if r.applicable:
                k = r.k
                tau_next = seq.record(k + 1).tau
                assert tau_next.lo() > 1

    def test_synthetic_violation_reported_not_raised(self):
        seq = derive_exponents(best_approx_sequence(parse_xi("cbrt:2"), 2, 100))
        enrich_independence(seq)
        # inflate mu on a good record: margin goes negative, no exception
        target = next(r for r in seq.records if r.good)
        target.mu = RealEnclosure.exact(50)
        results = check_thmA(seq, SLACK)
        bad = next(r for r in results if r.k == target.k)
        assert bad.applicable and bad.margin.hi() < 0


class TestLemma2d:
    def test_gate_on_doubling(self, cbrt2_report):
        _, seq = cbrt2_report
        k_fail = next(k for k in range(2, len(seq.records))
                      if seq.record(k).height <= 2 * seq.record(k - 1).height)
        results = check_lemma_2d(seq, k_fail, SLACK)
        assert len(results) == 1 and not results[0].applicable
        assert "doubling" in results[0].notes

    def test_identity_vacuous_on_good_k(self, cbrt2_report):
        _, seq = cbrt2_report
        k_ok = next(k for k in range(2, len(seq.records))
                    if seq.record(k).height > 2 * seq.record(k - 1).height
                    and seq.record(k).ell == k + 1)
        results = check_lemma_2d(seq, k_ok, SLACK)
        ident = next(r for r in results if r.check_id == "lemma2d-identity")
        assert ident.applicable and ident.margin.lo() >= 0
        assert "vacuous" in ident.notes

    def test_identity_on_constructed_rank2_window(self):
        # records P1, P2, P3 = P2 + P1 (unimodular), then an independent one:
        # the cross-determinant identity holds exactly on the rank-2 window
        p1 = IntPolynomial([1, 0, 1])
        p2 = IntPolynomial([0, 1, 2])
        p3 = p1 + p2
        p4 = IntPolynomial([5, -3, 1])
        xi = parse_xi("rat:1/3")
        from vlab.realspec import real_from_spec
        from vlab.rootisolation import poly_eval_enclosure
        xb = real_from_spec(xi, 96)
        records = []
        for i, p in enumerate([p1, p2, p3, p4]):
            from vlab.enclosure import ln
            val = abs(poly_eval_enclosure(p, xb))
            records.append(BestApproxRecord(
                k=i + 1, poly=p, height=10 * 4**i,  # fake doubling heights
                log_abs_value=ln(val, 96)))
        # fake monotone values: identity check does not look at them
        seq = SequenceData(xi, 2, records, 1000, 96)
        derive_exponents(seq)
        enrich_independence(seq)
        assert seq.record(2).ell == 4
        results = check_lemma_2d(seq, 2, SLACK)
        ident = next(r for r in results if r.check_id == "lemma2d-identity")
        assert ident.applicable
        assert ident.margin.lo() >= 0, "identity must hold within enclosure radius"


class TestThmB:
    def test_vacuous_on_genuine_data(self, cbrt2_report):
        report, _ = cbrt2_report
        thmb = [r for r in report.results if r.check_id == "thmB"]
        assert thmb and all(not r.applicable for r in thmb)
        assert any("vacuous" in r.notes for r in thmb)

    def test_equilibrium_synthetic_zero(self):
        # at the equilibrium substitution the cubic form vanishes: margin = slack
        for n in (2, 3):
            b = beta(n)
            tau = b - (2 * n - 3)
            margin = RealEnclosure.exact(SLACK) - theta(n, b, tau, tau)
            assert abs(float(margin.mid) - float(SLACK)) < 1e-8

    def test_contradiction_engine_sign(self):
        # just above the largest root the cubic form is positive: negative margin
        n = 2
        b = beta(n)
        w = b + Fraction(1, 10)
        tau = w - (2 * n - 3)
        margin = RealEnclosure.exact(SLACK) - theta(n, w, tau, tau)
        assert margin.hi() < 0


class TestFullReport:
    def test_identities_pass_everywhere(self, cbrt2_report):
        report, _ = cbrt2_report
        for r in report.results:
            if r.check_id in ("meeting-identity", "lemma2d-identity", "good-iff-ell"):
                assert r.applicable
                assert r.margin.lo() >= 0 or r.margin.mid > 0

    def test_lemma31_margins_reported(self, cbrt2_report):
        report, _ = cbrt2_report
        l31 = [r for r in report.results if r.check_id == "lemma31" and r.applicable]
        assert l31, "expected applicable lemma31 checks"
        # empirical O(1) constant: the most negative margin stays moderate
        worst = min(float(r.margin.mid) for r in l31)
        assert worst > -1.0

    def test_lemma31_keeps_no_state_between_runs(self, monkeypatch, cbrt2_report):
        # each run makes its own sweep: a second run on the stored sequence
        # scans as many windows as the first and reports the same margins
        _, seq = cbrt2_report
        stored = SequenceData.from_json(json.loads(json.dumps(seq.to_json(), sort_keys=True)))
        scans = []
        scan_box = boxscan.scan_box

        def counting(*args):
            scans.append(args[1])
            return scan_box(*args)

        monkeypatch.setattr(boxscan, "scan_box", counting)
        first = check_lemma31(stored)
        once = len(scans)
        second = check_lemma31(stored)
        assert once > 0 and len(scans) == 2 * once
        assert [r.to_json() for r in second] == [r.to_json() for r in first]

    def test_meeting_points_made_once_per_report(self, monkeypatch, cbrt2_report):
        # the meeting identity and lemma31 share each meeting point
        _, seq = cbrt2_report
        made = []
        meeting_point = verify.meeting_point

        def counting(prev, rec, *args):
            made.append(rec.k)
            return meeting_point(prev, rec, *args)

        monkeypatch.setattr(verify, "meeting_point", counting)
        full_report(seq)
        assert sorted(made) == list(range(2, len(seq.records) + 1))

    def test_lemma31_answers_every_e3_meeting_point(self, monkeypatch):
        # (e, 3, 60): under the one box budget every lemma31 row is
        # applicable; the minima at k = 10 and 11 (q = 9.77 and 10.97),
        # answered only since verify scans under the box budget of every
        # other command, meet the Minkowski envelope |sum L_j| <= C_n
        seq = best_approx_sequence(parse_xi("const:e"), 3, 60)
        asked = []
        minima_exact = verify.successive_minima_exact

        def recording(sweep, q):
            asked.append((q, minima_exact(sweep, q)))
            return asked[-1][1]

        monkeypatch.setattr(verify, "successive_minima_exact", recording)
        l31 = [r for r in full_report(seq).results if r.check_id == "lemma31"]
        assert [r.k for r in l31] == list(range(2, len(seq.records) + 1))
        assert all(r.applicable for r in l31)
        for k, q_text in ((10, "9.77"), (11, "10.97")):
            q, minima = asked[k - 2]
            assert f"{float(q):.2f}" == q_text
            assert paramgeom.minkowski_margin(minima, 3).hi() <= 0

    def test_lemma31_skips_past_the_box_budget(self, monkeypatch, cbrt2_report):
        # under a box budget of 10^3 cells the minima at the later meeting
        # points are refused: each of those lemma31 rows is skipped, not
        # applicable, with a note naming its q, and every other row of the
        # report is still there, as the default budget gives it
        report, seq = cbrt2_report
        monkeypatch.setattr(boxscan, "BOX_BUDGET", 10**3)
        budgeted = full_report(seq).results
        assert [(r.check_id, r.k) for r in budgeted] == [(r.check_id, r.k) for r in report.results]
        skipped = [r for r in budgeted if r.notes.startswith("skipped")]
        assert skipped and all(r.check_id == "lemma31" for r in skipped)
        assert len(skipped) < len([r for r in budgeted if r.check_id == "lemma31"])
        for r in skipped:
            q = paramgeom.meeting_point(seq.record(r.k - 1), seq.record(r.k), 2).q.mid
            assert r.notes == f"skipped: enumeration budget at q={float(q):.2f}"
            assert not r.applicable and r.margin is None
        for r, default in zip(budgeted, report.results):
            if r not in skipped:
                assert r.to_json() == default.to_json()

    def test_lemma31_skips_a_vanishing_p(self, tmp_path, capsys):
        # at 2^(1/4), of degree 4 = 2n-2, the minima meet 2 - T^4 (P(xi) = 0):
        # each lemma31 row is skipped with a note, and the report keeps
        # every other check and exits 0
        seq = best_approx_sequence(parse_xi("root:2:4"), 3, 60)
        report = full_report(seq)
        l31 = [r for r in report.results if r.check_id == "lemma31"]
        assert l31 and not any(r.applicable for r in l31)
        assert all(re.fullmatch(r"skipped: P\(xi\) not certified nonzero at q=\d+\.\d\d",
                                r.notes) for r in l31)
        others = [r.to_json() for r in report.results if r.check_id != "lemma31"]
        without = full_report(seq, lemma31=False)
        assert others == [r.to_json() for r in without.results]
        path = tmp_path / "r24.json"
        path.write_text(json.dumps(seq.to_json()))
        assert run(["verify", "--seq", str(path), "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [r["check_id"] for r in out["results"]] == [r.check_id for r in report.results]

    def test_n1_geometry_skipped_with_notes(self):
        seq = best_approx_sequence(parse_xi("sqrt:2"), 1, 100)
        report = full_report(seq)
        geo = [r for r in report.results
               if r.check_id in ("meeting-identity", "lemma31")]
        assert geo and all(not r.applicable for r in geo)
        assert all("n >= 2" in r.notes for r in geo)
        assert any(r.check_id == "thmA" for r in report.results)

    def test_empty_sequence_rejected(self):
        seq = best_approx_sequence(parse_xi("sqrt:2"), 1, 2)
        empty = dataclasses.replace(seq, records=[])
        with pytest.raises(EmptyInput):
            full_report(empty)

    def test_report_bytes_deterministic(self):
        seq1 = best_approx_sequence(parse_xi("cbrt:2"), 2, 100)
        seq2 = best_approx_sequence(parse_xi("cbrt:2"), 2, 100)
        assert report_json_bytes(full_report(seq1, lemma31=False)) == \
            report_json_bytes(full_report(seq2, lemma31=False))

    def test_roundtrip_identical_to_in_memory(self):
        seq = best_approx_sequence(parse_xi("cbrt:2"), 2, 100)
        mem = report_json_bytes(full_report(seq, lemma31=False))
        blob = json.dumps(seq.to_json(), sort_keys=True)
        loaded = SequenceData.from_json(json.loads(blob))
        disk = report_json_bytes(full_report(loaded, lemma31=False))
        assert mem == disk
