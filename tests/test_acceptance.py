# End-to-end acceptance checklist. Each test prints exactly one PASS/FAIL
# line (run with -s to see them all) and asserts the same condition, so the
# module doubles as a human-readable report and a hard gate.
import json
import math
import time

import numpy as np

from catproj.cli import main
from catproj.experiment import (
    Campaign,
    ReconstructionPlan,
    apparatus_povm,
    default_displacement_schedule,
    draw_counts,
    effective_displacement,
    expected_rates,
    reconstruction_sweep,
)
from catproj.fidelity import SweepGrid, displaced_povm, fidelity, optimize, sweep
from catproj.fock import ScsMeasurementSpec, TruncationDim, coherent_state, expect, scs_basis_project
from catproj.povm import (
    DetectorModel,
    IDEAL_DETECTOR,
    povm_entry_bound_check,
    random_povm_pair,
)
from catproj.tomography import (
    ClickTable,
    PhiVector,
    ProbeSet,
    ScsPovm,
    imaginary_probe_expectation,
    series_bound,
    povm_pair_fidelity,
    tomography_pipeline,
)

from oracles import apply_loss, compensate_loss

DIM = TruncationDim(24)
ALPHA = 0.499
LAB = DetectorModel(eta=0.689, nu=5.32e-5, visibility=0.998)
OPERATING_SPEC = ScsMeasurementSpec.from_c0sq(ALPHA, 0.5, math.pi / 2)
# reference reconstruction of the lab detector at the operating point
REFERENCE = np.array([[0.839, -0.237j], [0.237j, 0.362]])
# frozen regression value for check 04 (largest amplitude with a >1e-3 edge)
CROSSOVER_ALPHA_SQ = 1.6


def check(num: int, label: str, ok: bool, detail: str, started: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"check {num:02d}/12 {label}: {'PASS' if ok else 'FAIL'} ({detail}) [{elapsed:.1f} s]")
    assert ok, f"check {num:02d} {label}: {detail}"


def grid(start: float, stop: float, step: float) -> list[float]:
    count = int(round((stop - start) / step)) + 1
    return [round(start + step * k, 10) for k in range(count)]


def exact_table(pair, probes: ProbeSet) -> ClickTable:
    rates = [expect(pair.pi0, coherent_state(a, pair.dim)).real for a in probes.amplitudes()]
    return ClickTable.from_rates(probes.amplitudes(), rates, 1.0)


def project(pair) -> ScsPovm:
    return ScsPovm(
        scs_basis_project(pair.pi0, ALPHA),
        scs_basis_project(pair.pi1, ALPHA),
    )


def odd_coefficients(entries: np.ndarray, count: int) -> np.ndarray:
    """Odd-series coefficients straight from the Fock matrix elements."""
    out = np.zeros(count)
    for l in range(count):
        total = 0.0
        for m in range(2 * l + 2):
            n = 2 * l + 1 - m
            if n <= m or n >= entries.shape[0]:
                continue
            total += (-1.0) ** m * 2.0 * entries[m, n].imag / math.sqrt(
                math.factorial(m) * math.factorial(n)
            )
        out[l] = total
    return out


def test_undisplaced_fidelity_equals_dominant_weight():
    t0 = time.perf_counter()
    dim = TruncationDim(20)
    worst = 0.0
    for c0sq in grid(0.0, 1.0, 0.05):
        spec = ScsMeasurementSpec.from_c0sq(0.5, c0sq, 0.0)
        f = fidelity(displaced_povm(spec, 0j, IDEAL_DETECTOR, dim), spec)
        worst = max(worst, abs(f - max(c0sq, 1.0 - c0sq)))
    check(1, "undisplaced fidelity equals max(c0^2, c1^2)", worst <= 1e-9,
          f"21 points, max deviation {worst:.2e}", t0)


def test_parity_endpoint_reaches_unit_fidelity():
    t0 = time.perf_counter()
    dim = TruncationDim(20)
    spec = ScsMeasurementSpec.from_c0sq(0.5, 1.0, 0.0)
    f = fidelity(displaced_povm(spec, 0j, IDEAL_DETECTOR, dim), spec)
    beta = optimize(spec, IDEAL_DETECTOR, dim).beta_opt
    ok = abs(f - 1.0) <= 1e-10 and abs(beta) < 1e-3
    check(2, "even-weight endpoint is exact at zero displacement", ok,
          f"|f - 1| = {abs(f - 1.0):.2e}, |beta_opt| = {abs(beta):.2e}", t0)


def test_optimized_counting_dominates_baselines():
    t0 = time.perf_counter()
    reports = sweep(SweepGrid(tuple(grid(0.0, 1.0, 0.05)), (0.25,), (0.0,)))
    margin = min(r.f_dp - max(r.f_hd, r.f_pn) for r in reports)
    check(3, "displaced counting beats both baselines at alpha=0.5",
          margin >= -1e-9, f"21 points, worst margin {margin:+.3e}", t0)


def test_dominance_crossover_amplitude_is_frozen():
    t0 = time.perf_counter()
    reports = sweep(SweepGrid((0.75,), tuple(grid(0.1, 2.3, 0.1)), (0.0,)))
    winning = [round(r.spec.alpha ** 2, 10) for r in reports
               if r.f_dp - max(r.f_hd, r.f_pn) > 1e-3]
    crossover = max(winning)
    ok = abs(crossover - CROSSOVER_ALPHA_SQ) < 1e-9 and 1.2 <= crossover <= 1.8
    check(4, "largest amplitude with a >1e-3 advantage", ok,
          f"alpha^2 = {crossover}", t0)


def test_optimal_displacement_never_grows_with_weight():
    t0 = time.perf_counter()
    reports = sweep(SweepGrid(tuple(grid(0.5, 1.0, 0.05)), (0.25,), (0.0,)))
    moduli = [abs(r.beta_opt) for r in reports]  # ascending c0^2 (grids sort)
    worst = max(later - earlier for earlier, later in zip(moduli, moduli[1:]))
    check(5, "optimal displacement modulus is non-increasing on [0.5, 1]",
          worst <= 1e-3, f"largest step increase {worst:.2e}", t0)


def test_noiseless_tomography_roundtrip():
    t0 = time.perf_counter()
    truth = displaced_povm(OPERATING_SPEC, 0.894j, IDEAL_DETECTOR, DIM)
    probes = ProbeSet(ALPHA, (0.2, 0.3, 0.4, 0.5, 0.6))
    run = tomography_pipeline(exact_table(truth, probes), probes)
    fid = povm_pair_fidelity(project(truth), run.povm)
    check(6, "noiseless roundtrip fidelity >= 0.999", fid >= 0.999,
          f"fidelity {fid:.9f}", t0)


def test_sampled_tomography_roundtrip_across_seeds():
    t0 = time.perf_counter()
    truth = displaced_povm(OPERATING_SPEC, 0.894j, IDEAL_DETECTOR, DIM)
    probes = ProbeSet(ALPHA, (0.2, 0.3))
    target = project(truth)
    rates = expected_rates(truth, probes)
    fids = []
    for seed in range(100):
        campaign = Campaign(probes=probes, shots_per_probe=200_000, rng_seed=seed)
        run = tomography_pipeline(draw_counts(rates, campaign), probes)
        fids.append(povm_pair_fidelity(target, run.povm))
    passing = sum(f >= 0.99 for f in fids)
    check(7, "sampled roundtrip fidelity >= 0.99 for 95/100 seeds",
          passing >= 95, f"{passing}/100 seeds pass, min fidelity {min(fids):.5f}", t0)


def test_lab_replica_matches_reference_entries():
    t0 = time.perf_counter()
    shift = effective_displacement(0.894j, LAB)
    truth = apparatus_povm(OPERATING_SPEC, shift, LAB, DIM)
    probes = ProbeSet(ALPHA, (0.2, 0.3))
    campaign = Campaign(probes=probes, shots_per_probe=200_000, detector=LAB, rng_seed=7)
    run = tomography_pipeline(draw_counts(expected_rates(truth, probes), campaign), probes)
    dev = float(np.max(np.abs(run.povm.pi0 - REFERENCE)))
    check(8, "lab replica entries within 0.05 of the reference", dev <= 0.05,
          f"max entry deviation {dev:.4f}", t0)


def test_loss_compensation_inverts_and_helps():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    dim10 = TruncationDim(10)
    worst = 0.0
    for _ in range(50):
        pair = random_povm_pair(dim10, rng)
        back, _ = compensate_loss(apply_loss(pair, 0.689), 0.689)
        worst = max(
            worst,
            float(np.max(np.abs(back.pi0.entries - pair.pi0.entries))),
            float(np.max(np.abs(back.pi1.entries - pair.pi1.entries))),
        )
    campaign = Campaign(
        probes=ProbeSet(ALPHA, (0.2, 0.3)),
        shots_per_probe=200_000,
        detector=LAB,
        rng_seed=7,
    )
    plan = ReconstructionPlan(campaign, grid(0.5, 1.0, 0.1), [0.0], DIM, default_displacement_schedule(ALPHA))
    points = reconstruction_sweep(plan)
    gains = [p.f_compensated - p.f_raw for p in points]
    ok = worst <= 1e-6 and all(g > 0.0 for g in gains)
    check(9, "loss compensation round-trips and lifts every sweep point", ok,
          f"round-trip max dev {worst:.2e}; min fidelity gain {min(gains):+.4f}", t0)


def test_random_povm_entries_and_series_stay_bounded():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    dim8 = TruncationDim(8)
    top_entry = 0.0
    worst_ratio = 0.0
    for _ in range(500):
        pair = random_povm_pair(dim8, rng)
        for el in (pair.pi0, pair.pi1):
            ok, top = povm_entry_bound_check(el)
            assert ok, "entry bound violated"
            top_entry = max(top_entry, top)
            for k, c in enumerate(odd_coefficients(el.entries, 8)):
                worst_ratio = max(worst_ratio, abs(c) / series_bound(2 * k + 1))
    ok = top_entry <= 1.0 + 1e-9 and worst_ratio <= 1.0
    check(10, "1000 random elements satisfy entry and series bounds", ok,
          f"max entry {top_entry:.6f}, max |Phi|/bound {worst_ratio:.4f}", t0)


def test_assembled_probe_expectation_matches_direct():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    # Elements live on a 6-level space so the odd series terminates within
    # K=5; the coherent probes are evaluated on a padded space where their
    # photon-number tail is negligible.
    dim5 = TruncationDim(5)
    dim = TruncationDim(12)
    plus = coherent_state(ALPHA, dim).amps
    minus = coherent_state(-ALPHA, dim).amps
    probe = (plus + 1j * minus) / math.sqrt(2)
    worst = 0.0
    for _ in range(20):
        el = random_povm_pair(dim5, rng).pi0
        padded = np.zeros((dim.size, dim.size), dtype=complex)
        padded[: dim5.size, : dim5.size] = el.entries
        q_plus = float((plus.conj() @ padded @ plus).real)
        q_minus = float((minus.conj() @ padded @ minus).real)
        phi = PhiVector(odd_coefficients(el.entries, 5))
        _, raw = imaginary_probe_expectation(phi, ALPHA, (q_plus, q_minus))
        direct = float((probe.conj() @ padded @ probe).real)
        worst = max(worst, abs(raw - direct))
    check(11, "series-assembled expectation matches the direct value", worst <= 1e-6,
          f"20 POVMs, worst deviation {worst:.2e}", t0)


def test_reruns_reproduce_byte_identical_outputs(tmp_path):
    t0 = time.perf_counter()
    sweep_cfg = {
        "c0sq_values": [0.5, 1.0],
        "alpha_sq_values": [0.25],
        "phi_values": [0.0],
        "nmax": 14,
    }
    tomo_cfg = {
        "alpha": ALPHA,
        "c0sq": 0.5,
        "phi": round(math.pi / 2, 10),
        "drive_amplitude": 0.894,
        "drive_phase": round(math.pi / 2, 10),
        "eta": 0.689,
        "nu": 5.32e-5,
        "visibility": 0.998,
        "gammas": [0.2, 0.3],
        "shots": 2000,
        "seed": 3,
        "nmax": 16,
    }
    outcomes = {}
    for command, suffix, cfg in (("fidelity-sweep", "csv", sweep_cfg), ("tomography", "json", tomo_cfg)):
        cfg_path = tmp_path / f"{command}.cfg"
        cfg_path.write_text(json.dumps(cfg))
        first = tmp_path / f"first_{command}.{suffix}"
        second = tmp_path / f"second_{command}.{suffix}"
        assert main([command, "--config", str(cfg_path), "--out", str(first)]) == 0
        assert main([command, "--config", str(cfg_path), "--out", str(second)]) == 0
        outcomes[command] = first.read_bytes() == second.read_bytes()
    check(12, "reruns reproduce byte-identical outputs", all(outcomes.values()),
          ", ".join(f"{k} {'ok' if v else 'DIFFERS'}" for k, v in outcomes.items()), t0)
