"""Acceptance suite: every criterion is exact (equality in Q(ζ_p)), with one
printed pass/fail line per criterion.  Run with `pytest -s tests/test_acceptance.py`.
"""

import time

from weilbc.checks import RunConfig, Workspace, run_check

_T0 = time.time()


def _emit(name: str, report, extra: str = ""):
    status = "PASS" if report.ok else "FAIL"
    print(f"[{status}] {name}: {report.n_pass} ok / {report.n_fail} failed ({report.seconds:.1f}s){extra}")
    assert report.ok, f"{name}: {report.n_fail} failing cases"


def test_criterion_1_main_theorem_exhaustive(case_digest):
    cfg = RunConfig(p=3, base_degree=1, n=1, m=2, pairs=((1, 1),), sample="all", seed=42)
    report = run_check("star", cfg)
    assert len(report.cases) == 720
    assert case_digest(report) == "7a21ff8525d91a5a470ac6b505cfe454a8104c86a18eacfd50e0a4889d6bf029"
    _emit("1. base-change identity, all 720 elements of SL2(F9)", report)
    assert report.seconds < 60, "exhaustive sweep must finish within a minute"


def test_criterion_2_across_twists(case_digest):
    cfg = RunConfig(p=3, base_degree=1, n=1, m=3, pairs=((1, 1), (2, 2)), sample=200, seed=42)
    report = run_check("star", cfg)
    assert len(report.cases) == 400
    assert case_digest(report) == "8a7dc96d58b4e86131322bcda11046a3f0adee18046b202aa41114064a867698"
    _emit("2a. twists (i,t)=(1,1),(2,2) at m=3, 200 samples each", report)
    cfg = RunConfig(p=3, base_degree=1, n=1, m=4, pairs=((1, 1), (2, 1), (3, 3)), sample=200, seed=42)
    report = run_check("star", cfg)
    assert len(report.cases) == 600
    assert case_digest(report) == "ca383897c89a75acaf2c9142dd1a95a24fcaaf4c134099718bf44b45d4ae632c"
    _emit("2b. twists (1,1),(2,1),(3,3) at m=4 incl. d=2 target SL2(F9)", report)


def test_criterion_3_larger_q_and_n(case_digest):
    cfg = RunConfig(p=5, base_degree=1, n=1, m=2, pairs=((1, 1),), sample=500, seed=42)
    report = run_check("star", cfg)
    assert len(report.cases) == 500
    assert case_digest(report) == "5195b23c0da989299a59a09d45f022f13d4e5d7210c1070e6c1fe56c493b299e"
    _emit("3a. q=5, 500 samples", report)
    cfg = RunConfig(p=3, base_degree=1, n=2, m=2, pairs=((1, 1),), sample=100, seed=42)
    report = run_check("star", cfg)
    assert len(report.cases) == 100
    assert case_digest(report) == "1121b5eb5162ab19980592a5af92b1775dea80c90e505f18558d4dae3f457807"
    _emit("3b. Sp4(F9), operators of dimension 81, 100 samples", report)


def test_criterion_4_similitudes(case_digest):
    cfg = RunConfig(p=3, base_degree=1, n=1, m=2, pairs=((1, 1),), sample=200, seed=42)
    report = run_check("gsp", cfg)
    assert sum(1 for c in report.cases if c.input.startswith("i=")) == 200
    assert case_digest(report) == "c9b9535d01c206923ff3b337fe2d4cd874581fc08564e1844ee9033e233460e8"
    _emit("4. GL2(F9) -> GL2(F3) similitude identity, 200 samples", report)


def test_criterion_5_support(case_digest):
    cfg = RunConfig(p=3, base_degree=1, n=1, m=2, pairs=((1, 1),), sample=500, seed=42)
    report = run_check("support", cfg)
    assert case_digest(report) == "0292789137f79dcbf5b544cb6628dbc2dbd8ae3c00eea52004cf4ae85fb9662e"
    off = sum(1 for c in report.cases if "[off conjugates]" in c.input)
    assert off > 0, "sampling never left the conjugates of Γ⋉Sp·Z"
    _emit("5. |trace|^2 = induced trivial character, 500 samples", report, f" [{off} off-support points]")


def test_criterion_6_orthogonal_decomposition(case_digest):
    cfg = RunConfig(p=3, base_degree=1, n=2, m=2, pairs=((1, 1),), sample=200, seed=42)
    report = run_check("orthogonal", cfg)
    assert len(report.cases) >= 200
    assert case_digest(report) == "89f0170a65640fb7b6ce4fabda797aaadfe46aa27cf1695d49328f19441cbe00"
    _emit("6. split 1+1 tensor factorization of extended traces, 200+ samples", report)


def test_criterion_7_parabolic(case_digest):
    cfg = RunConfig(p=3, base_degree=1, n=1, m=2, pairs=((1, 1),), seed=42)
    report = run_check("parabolic", cfg)
    assert case_digest(report) == "4f7b61a31dd9f99cd00d1b3f8631e2425b85dd584af7b6ce33c2d61250d3c706"
    _emit("7. Borel restriction = induced character, full enumeration", report)


def test_criterion_8_torus_suite(case_digest):
    cfg = RunConfig(p=3, base_degree=1, n=1, m=3, pairs=((1, 1),), sample=100, seed=42)
    report = run_check("sl2-torus", cfg)
    assert case_digest(report) == "e1bd766bd1851b43067ed4c149594ae78c2dde6f8c1d5483328d172b06cd86b6"
    _emit("8a. torus propositions at q=3, m=3 (odd case)", report)
    cfg = RunConfig(p=3, base_degree=1, n=1, m=2, pairs=((1, 1),), sample=100, seed=42)
    report = run_check("sl2-torus", cfg)
    assert any(c.input == "tr nu'(sigma)" and c.rhs.startswith("-3") for c in report.cases)
    assert case_digest(report) == "b064c31c36ab23f3122eaa5f7463b4c317171a2432e2909c647e644cf55acb47"
    _emit("8b. torus propositions at q=3, m=2 (even case, eta twist)", report)


def test_criterion_9_structural_suites():
    for conf in [
        RunConfig(p=3, base_degree=1, n=1, m=2, pairs=((1, 1),), sample=200, seed=42),
        RunConfig(p=3, base_degree=1, n=1, m=3, pairs=((1, 1),), sample=200, seed=42),
        RunConfig(p=3, base_degree=1, n=1, m=4, pairs=((1, 1),), sample=200, seed=42),
        RunConfig(p=5, base_degree=1, n=1, m=2, pairs=((1, 1),), sample=200, seed=42),
        RunConfig(p=3, base_degree=1, n=2, m=2, pairs=((1, 1),), sample=200, seed=42),
    ]:
        report = run_check("homomorphism", conf)
        _emit(f"9. homomorphism/unitarity/intertwining at p={conf.p}, n={conf.n}, m={conf.m}", report)
    cfg = RunConfig(p=3, base_degree=1, n=1, m=2, pairs=((1, 1),), seed=42)
    report = run_check("gyoja-bijection", cfg)
    counts = [c for c in report.cases if "class counts" in c.input]
    assert counts and counts[0].lhs == "7" and counts[0].rhs == "7"
    _emit("9. Gyoja bijection 7<->7 at q=3, m=2 + isometry basis + dim count", report)
    cfg = RunConfig(p=3, base_degree=2, n=1, m=2, pairs=((1, 1),), seed=42)
    report = run_check("gyoja-bijection", cfg)
    counts = [c for c in report.cases if "class counts" in c.input]
    assert counts and counts[0].lhs == "13" and counts[0].rhs == "13"
    _emit("9. Gyoja bijection 13<->13 at q=9, m=2", report)
    for p, m in [(3, 2), (5, 2), (3, 4)]:
        cfg = RunConfig(p=p, base_degree=1, n=1, m=m, seed=42)
        report = run_check("gauss", cfg)
        _emit(f"9. Gauss-sum identities and Hasse-Davenport at p={p}, m={m}", report)


def test_criterion_10_budget_and_determinism():
    cfg = RunConfig(p=3, base_degree=1, n=1, m=3, pairs=((1, 1),), sample=50, seed=2024)
    r1 = run_check("star", cfg, Workspace(cfg))
    r2 = run_check("star", cfg, Workspace(cfg))
    same = [c.__dict__ for c in r1.cases] == [c.__dict__ for c in r2.cases]
    print(f"[{'PASS' if same else 'FAIL'}] 10a. reports deterministic under a fixed seed")
    assert same
    elapsed = time.time() - _T0
    print(f"[{'PASS' if elapsed <= 600 else 'FAIL'}] 10b. acceptance wall time {elapsed:.0f}s <= 600s")
    assert elapsed <= 600
