"""Acceptance gate: one test per criterion, each printing a PASS line with the
measured figure so a plain `pytest -s tests/test_acceptance.py` reads as a
checklist. Tolerances are fixed here, not configurable.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from ecgtriage import cli
from ecgtriage.cohort import (
    GEH_COLUMNS,
    assemble_features,
    chi_square_2x2,
    load_cohort,
    mann_whitney,
)
from ecgtriage.ecg_ingest import Beat, Wave, round_half_up
from ecgtriage.gbt import Booster, TrainConfig, fit, importance_gain
from ecgtriage.geh import compute_geh, spatial_angle, SpatialVector
from ecgtriage.pipeline import (
    Confusion,
    ExperimentConfig,
    choose_threshold,
    evaluate_model,
    f2,
    pr_aucpr,
    rebalance,
    roc_auc,
    run_instance,
    split,
)
from ecgtriage.synth import SynthConfig, generate
from ecgtriage.vcg import KORS_INPUT_LEADS, KORS_MATRIX, kors_transform

from conftest import extract, median_beat_from, vcg_from
from oracles import (
    average_precision_bruteforce,
    dense_grid_geh,
    first_tree_bruteforce_masked,
    gaussian_loop_vcg,
    mann_whitney_exact_p_pairmatrix,
)


def report(line):
    print(f"\nACCEPTANCE {line}")


@pytest.fixture(scope="module")
def cohort300(tmp_path_factory):
    """Synthetic 300-patient cohort at the 223:51 class ratio, extracted once."""
    root = tmp_path_factory.mktemp("acc300")
    t0 = time.monotonic()
    generate(SynthConfig(n_patients=300, seed=42, positive_fraction=51 / 274), root / "data")
    extract(root / "data", root / "extract")
    prep_seconds = time.monotonic() - t0
    return {"root": root, "features": root / "extract" / "features.csv",
            "prep_seconds": prep_seconds}


def test_criterion_01_kors_transform(rng):
    t0 = time.monotonic()
    max_rel = 0.0
    for _ in range(1000):
        ma = rng.normal(size=(12, 30))
        mb = rng.normal(size=(12, 30))
        a, b = rng.uniform(-5, 5, size=2)
        lhs = kors_transform(median_beat_from(a * ma + b * mb)).xyz
        rhs = (a * kors_transform(median_beat_from(ma)).xyz
               + b * kors_transform(median_beat_from(mb)).xyz)
        scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-30)
        max_rel = max(max_rel, float(np.abs(lhs - rhs).max() / scale))
    assert max_rel <= 1e-12

    for col, lead in enumerate(KORS_INPUT_LEADS):
        matrix = np.zeros((12, 20))
        from ecgtriage.ecg_ingest import LEAD_NAMES
        matrix[LEAD_NAMES.index(lead)] = 1.0
        vcg = kors_transform(median_beat_from(matrix))
        assert np.all(vcg.xyz == KORS_MATRIX[:, col, None])

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(f"1 PASS: lead-reduction linearity max rel err {max_rel:.2e} over 1000 "
           f"beats, impulse responses exact, {elapsed:.2f}s")


def test_criterion_02_geh_geometry(rng):
    t0 = time.monotonic()
    # angle range, symmetry, scale invariance
    for _ in range(1000):
        u = SpatialVector(*rng.uniform(-3, 3, size=3), kind="peak")
        v = SpatialVector(*rng.uniform(-3, 3, size=3), kind="peak")
        if u.magnitude == 0 or v.magnitude == 0:
            continue
        ang = spatial_angle(u, v)
        assert 0.0 <= ang <= 180.0
        assert abs(spatial_angle(v, u) - ang) <= 1e-9
        c1, c2 = rng.uniform(0.01, 100, size=2)
        scaled = spatial_angle(
            SpatialVector(c1 * u.x, c1 * u.y, c1 * u.z, "peak"),
            SpatialVector(c2 * v.x, c2 * v.y, c2 * v.z, "peak"))
        assert abs(scaled - ang) <= 1e-9

    # rotation invariance of angles and magnitudes over 100 random rotations
    def unit_from(azimuth_deg, elevation_deg):
        az, el = math.radians(azimuth_deg), math.radians(elevation_deg)
        return np.array([math.sin(el) * math.cos(az), math.cos(el),
                         math.sin(el) * math.sin(az)])

    worst_rot = 0.0
    for _ in range(100):
        base = vcg_from(rng.normal(size=(3, 90)))
        g = compute_geh(base)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        gr = compute_geh(vcg_from(q @ base.xyz, fiducials=base.fiducials))
        for name in ("peak_qrst_angle_deg", "area_qrst_angle_deg",
                     "svg_mvms", "peak_svg_mv", "vm_qti_mvms"):
            a, b = getattr(g, name), getattr(gr, name)
            worst_rot = max(worst_rot, abs(a - b) / max(abs(a), abs(b), 1e-12))
        rotated_dir = q @ unit_from(g.area_svg_azimuth_deg, g.area_svg_elevation_deg)
        got_dir = unit_from(gr.area_svg_azimuth_deg, gr.area_svg_elevation_deg)
        assert np.abs(rotated_dir - got_dir).max() <= 1e-6
    assert worst_rot <= 1e-6

    # area additivity and the integral-magnitude inequality, 10^4 random beats
    from ecgtriage.geh import area_vector, vector_magnitude_integral
    worst_add = 0.0
    for _ in range(10_000):
        n = 40
        v = vcg_from(rng.normal(size=(3, n)))
        f = v.fiducials
        qrs = area_vector(v, f.qrs.onset, f.qrs.offset)
        t = area_vector(v, f.qrs.offset, f.t.offset)
        qt = area_vector(v, f.qrs.onset, f.t.offset)
        gap = np.array([qrs.x + t.x - qt.x, qrs.y + t.y - qt.y, qrs.z + t.z - qt.z])
        worst_add = max(worst_add, float(np.abs(gap).max() / max(qt.magnitude, 1e-12)))
        vm = vector_magnitude_integral(v, f.qrs.onset, f.t.offset)
        assert vm >= qt.magnitude - 1e-9
    assert worst_add <= 1e-9

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(f"2 PASS: geometry suite (rotation {worst_rot:.1e}, additivity "
           f"{worst_add:.1e}, 1e4 integral bounds), {elapsed:.1f}s")


def _sample_oracle_beat(rng):
    """Gaussian-loop beat whose sampled features equal the continuous ones to
    well below 0.1%: bumps 3.5 sigma apart, windows covering 3.3 sigma."""
    dt = 1000.0 / 240.0

    def unit(v):
        return v / np.linalg.norm(v)

    u_q = unit(rng.normal(size=3))
    axis = rng.normal(size=3)
    axis = unit(axis - np.dot(axis, u_q) * u_q)
    theta = math.radians(rng.uniform(25.0, 120.0))
    u_t = math.cos(theta) * u_q + math.sin(theta) * axis

    r_amp = rng.uniform(1.0, 2.0)
    r_w = rng.uniform(14.0, 20.0)
    s_amp = rng.uniform(0.2, 0.6)
    s_w = rng.uniform(8.0, 12.0)
    t_amp = rng.uniform(0.25, 0.45)
    t_w = rng.uniform(35.0, 50.0)

    s_center = math.ceil(3.5 * max(s_w, r_w) / dt)
    qrs_on = -math.ceil(3.3 * r_w / dt)
    qrs_off = s_center + math.ceil(3.3 * s_w / dt)
    t_center = qrs_off + math.ceil(3.6 * t_w / dt)
    t_off = t_center + math.ceil(3.3 * t_w / dt)
    bumps = ((r_amp, r_w, 0.0, u_q),
             (-s_amp, s_w, s_center * dt, u_q),
             (t_amp, t_w, t_center * dt, u_t))
    return bumps, qrs_on, qrs_off, t_center, t_off


def test_criterion_03_closed_form_beat_oracle():
    rng = np.random.default_rng(2024)
    dt = 1000.0 / 240.0
    accepted = 0
    worst = 0.0
    while accepted < 20:
        bumps, qrs_on, qrs_off, t_center, t_off = _sample_oracle_beat(rng)
        expected = dense_grid_geh(bumps, qrs_on * dt, qrs_off * dt, t_off * dt)
        # keep angles away from their coordinate singularities so a relative
        # tolerance is meaningful
        if not (15.0 <= expected["peak_qrst_angle_deg"] <= 165.0
                and 15.0 <= expected["area_qrst_angle_deg"] <= 165.0
                and min(abs(expected["peak_svg_azimuth_deg"]),
                        abs(expected["area_svg_azimuth_deg"])) >= 15.0
                and 15.0 <= expected["peak_svg_elevation_deg"] <= 165.0
                and 15.0 <= expected["area_svg_elevation_deg"] <= 165.0):
            continue
        accepted += 1

        center = -qrs_on + 10
        n = center + t_off + 10
        t_axis = (np.arange(n) - center) * dt
        v = gaussian_loop_vcg(t_axis, bumps)
        fids = Beat(
            baseline=0, p=None,
            qrs=Wave(center + qrs_on, center, center + qrs_off),
            t=Wave(center + qrs_off + 1, center + t_center, center + t_off))
        got = vars(compute_geh(vcg_from(v, fiducials=fids)))
        for name, value in expected.items():
            rel = abs(got[name] - value) / abs(value)
            worst = max(worst, rel)
            assert rel <= 1e-3, (name, got[name], value)
    report(f"3 PASS: nine outputs on 20 closed-form beats, worst rel err {worst:.2e}")


def test_criterion_04_auc_mann_whitney_bridge(rng):
    worst = 0.0
    checked_ap = 0
    for _ in range(1000):
        n = int(rng.integers(4, 31))
        y = rng.integers(0, 2, size=n)
        if y.sum() in (0, n):
            continue
        s = rng.integers(0, 6, size=n).astype(float)  # coarse grid forces ties
        _, auc = roc_auc(y, s)
        u = mann_whitney(s[y == 1], s[y == 0]).u
        bridge = u / (int(y.sum()) * int(n - y.sum()))
        worst = max(worst, abs(auc - bridge))
        assert abs(auc - bridge) <= 1e-12
        if n <= 20:
            _, ap = pr_aucpr(y, s)
            assert ap == average_precision_bruteforce(y.tolist(), s.tolist())
            checked_ap += 1
    assert checked_ap > 200
    report(f"4 PASS: AUC==U/(n+ n-) within {worst:.1e} on 1000 sets; "
           f"AUCPR exactly equals brute force on {checked_ap} sets")


def test_criterion_05_threshold_rule(rng):
    for p_count in range(5, 41):
        for _ in range(3):
            y = np.r_[np.ones(p_count), np.zeros(50)].astype(int)
            s = rng.integers(0, 12, size=len(y)).astype(float) / 11.0
            choice = choose_threshold(y, s, min_sens=0.90)
            k = choice.confusion.tp
            assert choice.sensitivity == k / p_count
            assert k >= math.ceil(0.9 * p_count)

    # 17 positives: the minimal compliant sensitivity is 16/17 = 94.12%
    pos = np.linspace(0.6, 0.95, 17)
    pos[0] = 0.05
    neg = np.linspace(0.1, 0.55, 60)
    y = np.r_[np.ones(17), np.zeros(60)].astype(int)
    choice = choose_threshold(y, np.r_[pos, neg], min_sens=0.90)
    assert choice.sensitivity == 16 / 17
    assert f"{100 * choice.sensitivity:.2f}" == "94.12"
    report("5 PASS: sensitivity floor reached as k/P for P in 5..40; "
           "P=17 gives 16/17 = 94.12%")


def test_criterion_06_f2_identities(rng):
    worst = 0.0
    for _ in range(1000):
        tp = int(rng.integers(1, 60))
        fp, fn, tn = (int(v) for v in rng.integers(0, 60, size=3))
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        expected = 5 * precision * recall / (4 * precision + recall)
        got = f2(Confusion(tp=tp, fp=fp, fn=fn, tn=tn))
        worst = max(worst, abs(got - expected))
        assert abs(got - expected) <= 1e-12
    workbook = f2(Confusion(tp=16, fp=45, fn=1, tn=20))
    assert abs(workbook - 0.6202) <= 1e-4
    report(f"6 PASS: F2 formula on 1000 confusions (max dev {worst:.1e}); "
           f"worked example {workbook:.4f}")


def _tree_shape(node):
    if node.is_leaf:
        return ("leaf", node.weight)
    return ("split", node.feature, node.threshold, node.gain,
            _tree_shape(node.left), _tree_shape(node.right))


def _shapes_equal(a, b, tol=1e-9):
    if a[0] != b[0]:
        return False
    if a[0] == "leaf":
        return math.isclose(a[1], b[1], rel_tol=tol, abs_tol=tol)
    return (a[1] == b[1]
            and math.isclose(a[2], b[2], rel_tol=tol, abs_tol=tol)
            and math.isclose(a[3], b[3], rel_tol=tol, abs_tol=tol)
            and _shapes_equal(a[4], b[4], tol) and _shapes_equal(a[5], b[5], tol))


def test_criterion_07_boosted_tree_correctness(rng):
    cfg = TrainConfig(learning_rate=0.3, num_rounds=1, max_depth=3)
    for _ in range(50):
        X = rng.normal(size=(200, 5))
        # exactly balanced labels, as after rebalancing: the prevalence is a
        # dyadic rational, so gradient sums (and therefore tied gains and the
        # documented tie rule) are exact on both sides of the comparison
        scores = X[:, 0] - 0.7 * X[:, 2] + 0.5 * rng.normal(size=200)
        y = np.zeros(200, dtype=int)
        y[np.argsort(scores)[100:]] = 1
        model = fit(X, y, cfg)
        # the package's fixed regularisation: l2_reg 1, gamma 0, min_child_hessian 1
        oracle = first_tree_bruteforce_masked(X, y, cfg.max_depth, 1.0, 0.0, 1.0, model.base_score)
        assert _shapes_equal(_tree_shape(model.trees[0].root), oracle)

    for _ in range(10):
        X = rng.normal(size=(100, 4))
        y = (X[:, 1] + rng.normal(size=100) > 0).astype(int)
        booster = Booster(X, y, TrainConfig(learning_rate=0.3, num_rounds=25, max_depth=4))

        def train_loss():
            m = booster.ensemble.margins(X)
            return np.mean(np.logaddexp(0, m) - y * m)

        losses = [train_loss()]
        for _ in range(25):
            booster.step()
            losses.append(train_loss())
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

        features = importance_gain(booster.ensemble)["features"]
        assert abs(sum(e["percent"] for e in features) - 100.0) <= 1e-6

    X = rng.normal(size=(150, 5))
    y = (X[:, 3] > 0).astype(int)
    features = importance_gain(fit(X, y, TrainConfig(learning_rate=0.3, num_rounds=10,
                                                     max_depth=3)))["features"]
    share = next(e["percent"] for e in features if e["name"] == "f3")
    assert share >= 90.0
    report(f"7 PASS: 50 first trees equal exhaustive search; loss monotone; "
           f"gains sum to 100; informative feature holds {share:.1f}%")


def test_criterion_08_rebalance_policy(rng):
    cases = [(100, 20)]  # the documented 5:1 imbalance
    while len(cases) < 1000:
        n_min = int(rng.integers(1, 80))
        n_maj = int(n_min * rng.uniform(1.0, 10.0))
        cases.append((max(n_maj, n_min), n_min))
    for n_maj, n_min in cases:
        y = np.r_[np.zeros(n_maj), np.ones(n_min)]
        idx = rebalance(y, random.Random(int(rng.integers(0, 2**32))))
        m = (n_maj + n_min) // 2
        picked = y[idx]
        assert len(idx) == 2 * m
        assert (picked == 0).sum() == m
        assert (picked == 1).sum() == m
        maj_rows = idx[picked == 0]
        assert len(np.unique(maj_rows)) == len(maj_rows)
    report("8 PASS: 1000 random imbalances rebalanced to exact 1:1 with unique "
           "majority rows")


def test_criterion_09_end_to_end_synthetic(cohort300):
    t0 = time.monotonic()
    cohort = load_cohort(cohort300["features"])
    labels = [r.label for r in cohort]
    assert len(cohort) == 300
    assert sum(labels) == round_half_up(300 * 51 / 274)

    wins = 0
    srg_aucs = []
    for seed in range(1, 21):
        cfg = ExperimentConfig(master_seed=seed, eta_grid=(0.1, 0.3), k_folds=5,
                               n_instances=50, max_rounds=150, patience=15,
                               max_depth=4)
        plan = split(cohort, seed)
        srg = evaluate_model("SRG", cohort, cfg, split_plan=plan)
        r_only = evaluate_model("R", cohort, cfg, split_plan=plan)
        wins += srg["metrics"]["auc"] > r_only["metrics"]["auc"]
        srg_aucs.append(srg["metrics"]["auc"])

    elapsed = time.monotonic() - t0 + cohort300["prep_seconds"]
    median_auc = float(np.median(srg_aucs))
    assert wins >= 16  # >= 80% of 20 runs
    assert median_auc > 0.60
    assert elapsed < 300.0
    report(f"9 PASS: combined model beats risk-only in {wins}/20 seeds, median "
           f"AUC {median_auc:.3f}, end-to-end {elapsed:.0f}s")


def test_criterion_10_statistics_oracles(rng):
    worst = 0.0
    checked = 0
    sizes = [(8, 8), (8, 7), (1, 8)] + [
        (int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in range(22)]
    for n1, n2 in sizes:
        a = rng.integers(0, 5, size=n1).astype(float).tolist()
        b = rng.integers(0, 5, size=n2).astype(float).tolist()
        p = mann_whitney(a, b).p
        p_ref = mann_whitney_exact_p_pairmatrix(a, b)
        worst = max(worst, abs(p - p_ref))
        assert abs(p - p_ref) <= 1e-9
        checked += 1

    stat, p = chi_square_2x2([[51, 172], [26, 25]])
    assert p < 0.001
    report(f"10 PASS: exact rank-test p matches enumeration on {checked} group "
           f"pairs (max dev {worst:.1e}); prior-MI table p={p:.2e} < 0.001")


def test_criterion_11_determinism(cohort300, tmp_path):
    root = cohort300["root"]
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(
        f"cohort_table={cohort300['features']}\n"
        "master_seed=5\nspecs=SRG\neta_grid=0.3\nk_folds=3\nn_instances=6\n"
        "max_rounds=40\npatience=8\nmax_depth=3\n",
        encoding="utf-8",
    )
    for out in ("run_a", "run_b"):
        rc = cli.main(["train-eval", "--config", str(cfg_path),
                       "--out", str(tmp_path / out)])
        assert rc == 0
    names = sorted(p.name for p in (tmp_path / "run_a" / "reports").iterdir())
    assert names
    for name in names:
        a = (tmp_path / "run_a" / "reports" / name).read_bytes()
        b = (tmp_path / "run_b" / "reports" / name).read_bytes()
        assert a == b, name

    # per-instance seed isolation: rerun one instance alone, match its log
    report_doc = json.loads((tmp_path / "run_a" / "reports" / "report_SRG.json").read_text())
    cohort = load_cohort(cohort300["features"])
    matrix = assemble_features(cohort, "SRG")
    plan = split(cohort, 5)
    train_m = matrix.rows_for(plan.train_ids)
    test_m = matrix.rows_for(plan.test_ids)
    tc = TrainConfig(
        learning_rate=report_doc["tuning"]["chosen_eta"],
        num_rounds=report_doc["tuning"]["chosen_rounds"],
        max_depth=3)
    probe = report_doc["selection"]["auc_log"][3]
    _, rerun = run_instance(train_m.X, train_m.y, test_m.X, test_m.y, tc,
                            master_seed=5, index=probe["instance"])
    assert rerun["auc"] == probe["auc"]
    assert list(rerun["seed_key"]) == probe["seed_key"]
    report(f"11 PASS: {len(names)} report files byte-identical across reruns; "
           f"instance {probe['instance']} reproduced in isolation "
           f"(AUC {rerun['auc']:.4f})")
