import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from catproj import experiment, fock, tomography
from catproj import fidelity as fidelity_module
from catproj.experiment import (
    RATE_TOL,
    Campaign,
    ReconstructionPlan,
    ReconstructionPoint,
    _apparatus_spectrum,
    apparatus_povm,
    apparatus_rates,
    default_displacement_schedule,
    draw_counts,
    effective_displacement,
    expected_rates,
    reconstruction_sweep,
)
from catproj.fidelity import displaced_povm, fidelity, optimize
from catproj.fock import (
    COHERENT_TAIL_TOL,
    CutoffTooSmallError,
    FockOperator,
    ScsMeasurementSpec,
    TruncationDim,
    cat_basis,
    displacement_operator,
    max_guarded_amplitude,
    scs_projectors,
)
from catproj.povm import (
    EIGENVALUE_FLOOR,
    IDEAL_DETECTOR,
    DetectorModel,
    PovmPair,
    _outcome_weights,
    _partition,
    random_povm_pair,
)
from catproj.tomography import ClickTable, ProbeSet, measurement_fidelity

import oracles
from oracles import apply_loss

DIM = TruncationDim(24)
ALPHA = 0.499
LAB_DETECTOR = DetectorModel(eta=0.689, nu=5.32e-5, visibility=0.998)
OPERATING_SPEC = ScsMeasurementSpec.from_c0sq(ALPHA, 0.5, math.pi / 2)
PROBES = ProbeSet(ALPHA, (0.2, 0.3))


def half_identity_pair(dim=DIM) -> PovmPair:
    h = 0.5 * np.eye(dim.size, dtype=complex)
    return PovmPair.checked(dim, h, h)


def lab_truth(dim=DIM) -> PovmPair:
    shift = effective_displacement(0.894j, LAB_DETECTOR)
    return apparatus_povm(OPERATING_SPEC, shift, LAB_DETECTOR, dim)


def test_campaign_validation():
    camp = Campaign(probes=PROBES)
    assert camp.shots_per_probe == 200_000
    assert camp.detector is IDEAL_DETECTOR
    with pytest.raises(ValueError):
        Campaign(probes=PROBES, shots_per_probe=0)
    assert Campaign(probes=PROBES, shots_per_probe=2**63 - 1).shots_per_probe == 2**63 - 1
    for shots in (2**63, 10**20):  # numpy's binomial draws overflow an int64 count
        with pytest.raises(ValueError, match="2\\^63"):
            Campaign(probes=PROBES, shots_per_probe=shots)
    with pytest.raises(ValueError):
        Campaign(probes=PROBES, rng_seed=-1)
    with pytest.raises(ValueError):
        Campaign(probes=PROBES, rng_seed=2**64)


def test_plan_checks_the_seeds_of_the_whole_grid():
    # rows run phi-major, and row r draws with rng_seed + r: a 2-row grid
    # from 2^64 - 2 ends on the last 64-bit seed, and from 2^64 - 1 passes it
    plan = ReconstructionPlan(Campaign(probes=PROBES, rng_seed=2**64 - 2), [0.5], [0.0, 1.0], DIM)
    assert plan.seeds == range(2**64 - 2, 2**64)
    with pytest.raises(ValueError, match="64-bit"):
        ReconstructionPlan(Campaign(probes=PROBES, rng_seed=2**64 - 1), [0.5], [0.0, 1.0], DIM)


def test_expected_rates_closed_forms():
    vac = np.zeros((DIM.size, DIM.size), dtype=complex)
    vac[0, 0] = 1.0
    truth = PovmPair.checked(DIM, vac, np.eye(DIM.size) - vac)
    rates = expected_rates(truth, PROBES)
    # |<0|i gamma>|^2 = exp(-gamma^2), and the vacuum projector cannot tell
    # +i gamma from -i gamma
    assert rates[2] == pytest.approx(math.exp(-0.04), abs=1e-12)
    assert rates[4] == pytest.approx(math.exp(-0.09), abs=1e-12)
    assert rates[2] == pytest.approx(rates[3], abs=1e-15)
    assert rates[4] == pytest.approx(rates[5], abs=1e-15)

    rng = np.random.default_rng(11)
    for _ in range(10):
        pair = random_povm_pair(DIM, rng)
        r = expected_rates(pair, PROBES)
        assert np.all(r > -1e-12) and np.all(r < 1 + 1e-12)


def test_draw_counts_identity_truth():
    eye = np.eye(DIM.size, dtype=complex)
    truth = PovmPair.checked(DIM, eye, np.zeros_like(eye))
    table = draw_counts(expected_rates(truth, PROBES), Campaign(probes=PROBES, shots_per_probe=500))
    assert np.all(table.counts0 == 500.0)
    assert np.all(table.counts1 == 0.0)


def test_draw_counts_unbiased_coin():
    table = draw_counts(expected_rates(half_identity_pair(), PROBES), Campaign(probes=PROBES, rng_seed=3))
    frac = table.counts0 / table.shots
    sigma = math.sqrt(0.25 / 200_000)
    assert np.all(np.abs(frac - 0.5) < 5 * sigma)


def test_draw_counts_matches_exact_rates():
    truth = lab_truth()
    p = expected_rates(truth, PROBES)
    table = draw_counts(p, Campaign(probes=PROBES, rng_seed=7))
    sigma = np.sqrt(p * (1 - p) / 200_000)
    assert np.all(np.abs(table.counts0 / table.shots - p) < 3 * sigma)


def test_draw_counts_deterministic():
    rates = expected_rates(half_identity_pair(), PROBES)
    camp = Campaign(probes=PROBES, rng_seed=42)
    a = draw_counts(rates, camp)
    b = draw_counts(rates, camp)
    assert np.array_equal(a.counts0, b.counts0)
    other = draw_counts(rates, Campaign(probes=PROBES, rng_seed=43))
    assert not np.array_equal(a.counts0, other.counts0)
    # seeds at and above 2^63 key the stream as unsigned 64-bit integers,
    # not as rounded floats, so neighbouring large seeds stay distinct
    high = [
        draw_counts(rates, Campaign(probes=PROBES, rng_seed=seed)).counts0
        for seed in (2**63, 2**63 + 1000)
    ]
    assert not np.array_equal(*high)


@st.composite
def _probe_rates_and_campaign(draw):
    k = draw(st.integers(1, 6))
    rates = draw(st.lists(st.floats(-RATE_TOL, 1.0 + RATE_TOL), min_size=2 + 2 * k, max_size=2 + 2 * k))
    probes = ProbeSet(ALPHA, tuple(0.1 * (i + 1) for i in range(k)))
    campaign = Campaign(probes, shots_per_probe=draw(st.integers(1, 10**9)), rng_seed=draw(st.integers(0, 2**64 - 1)))
    return rates, campaign


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_probe_rates_and_campaign())
@example(case=([0.0, 1.0, 0.5, -RATE_TOL], Campaign(ProbeSet(ALPHA, (0.2,)), 1, rng_seed=2**64 - 1)))
def test_draw_counts_matches_a_new_philox_per_probe(case):
    # one generator per table, reset before each probe, draws what a new
    # generator keyed by (rng_seed, probe_index) draws
    rates, campaign = case
    want = oracles.fresh_philox_counts(rates, campaign.shots_per_probe, campaign.rng_seed)
    assert np.array_equal(draw_counts(rates, campaign).counts0, want)


def test_draw_counts_rejects_invalid_truth():
    eye = np.eye(DIM.size, dtype=complex)
    bogus = PovmPair(DIM, FockOperator(DIM, 1.5 * eye), FockOperator(DIM, -0.5 * eye))
    with pytest.raises(ValueError, match="outside"):
        draw_counts(expected_rates(bogus, PROBES), Campaign(probes=PROBES))


def test_drawn_counts_are_statistically_sound():
    truth = lab_truth()
    p = expected_rates(truth, PROBES)
    shots = 200_000
    total = 0.0
    for seed in range(100):
        table = draw_counts(p, Campaign(probes=PROBES, rng_seed=seed))
        total += float(np.sum((table.counts0 - shots * p) ** 2 / (shots * p * (1 - p))))
    tail = stats.chi2.sf(total, df=100 * len(p))
    assert 1e-6 < tail < 1 - 1e-6


def test_effective_displacement():
    assert effective_displacement(0.894j, LAB_DETECTOR) == pytest.approx(0.446106j, abs=1e-12)
    assert effective_displacement(0.8, IDEAL_DETECTOR) == pytest.approx(0.4, abs=1e-15)


def test_apparatus_povm_composition():
    shift = effective_displacement(0.894j, LAB_DETECTOR)
    got = apparatus_povm(OPERATING_SPEC, shift, LAB_DETECTOR, DIM)

    dmat = displacement_operator(shift, DIM).entries
    mask = _partition([t.amps for t in scs_projectors(OPERATING_SPEC, DIM)], dmat)
    proj = np.diag(mask.astype(complex))
    base = PovmPair.checked(DIM, proj, np.eye(DIM.size) - proj)
    lossy = apply_loss(base, LAB_DETECTOR.eta)
    pi0 = (1.0 - LAB_DETECTOR.nu) * (dmat @ lossy.pi0.entries @ dmat.conj().T)
    assert np.max(np.abs(got.pi0.entries - pi0)) < 1e-12

    # eta = 0 is a valid detector: every photon number collapses onto n = 0,
    # so pi0 is (1 - nu) D D^dag when the vacuum belongs to outcome 0, else 0
    blind = DetectorModel(eta=0.0, nu=LAB_DETECTOR.nu)
    got = apparatus_povm(OPERATING_SPEC, shift, blind, DIM)
    ref = (1.0 - blind.nu) * mask[0] * (dmat @ dmat.conj().T)
    assert np.max(np.abs(got.pi0.entries - ref)) < 1e-12


def test_apparatus_povm_ideal_limit():
    got = apparatus_povm(OPERATING_SPEC, 0.3j, IDEAL_DETECTOR, DIM)
    ref = displaced_povm(OPERATING_SPEC, 0.3j, IDEAL_DETECTOR, DIM)
    assert np.max(np.abs(got.pi0.entries - ref.pi0.entries)) < 1e-10


_UNIT = st.floats(0.0, 1.0)
_DETECTORS = st.one_of(
    st.just(IDEAL_DETECTOR),
    st.builds(DetectorModel, eta=_UNIT, nu=st.floats(0.0, 0.99), visibility=_UNIT),
)


@st.composite
def _apparatus_cases(draw, smallest_n_max=20, top=0.8):
    """A cutoff of at least ``smallest_n_max`` (up to 30), a spec, a
    detector, a guarded shift and a probe set with amplitudes up to ``top``.
    By default every amplitude (alpha, gammas and their distance to the
    shift) sits deep inside the cutoff, where truncating either route costs
    below 1e-15."""
    dim = TruncationDim(draw(st.integers(smallest_n_max, 30)))
    alpha = draw(st.floats(0.1, top))
    spec = ScsMeasurementSpec.from_c0sq(alpha, draw(_UNIT), draw(st.floats(0.0, 2 * math.pi)))
    radius = draw(st.floats(0.0, max_guarded_amplitude(dim)))
    shift = cmath.rect(radius, draw(st.floats(0.0, 2 * math.pi)))
    gammas = draw(st.lists(st.floats(0.01, top), min_size=1, max_size=6, unique=True))
    return dim, spec, draw(_DETECTORS), shift, ProbeSet(alpha, gammas)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_apparatus_cases())
def test_apparatus_rates_match_the_fock_truth(case):
    # D(s)^dag |g> is |g - s> up to a phase: the closed form reads each rate
    # off a Poisson weight, where expected_rates assembles the N x N truth
    dim, spec, detector, shift, probes = case
    closed = apparatus_rates(spec, shift, detector, dim, probes)
    fock_route = expected_rates(apparatus_povm(spec, shift, detector, dim), probes)
    assert np.max(np.abs(closed - fock_route)) <= 1e-14


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_apparatus_cases(smallest_n_max=6, top=2.2))
@example(case=(TruncationDim(14), OPERATING_SPEC, IDEAL_DETECTOR, -0.81j, ProbeSet(ALPHA, (1.46,))))
def test_accepted_apparatus_rates_hold_the_fock_truth_at_the_cutoff_edge(case):
    # the closed form sums the Poisson weights of |g - shift| up to n_max, so
    # the cutoff must hold every g - shift, not only every probe g
    dim, spec, detector, shift, probes = case
    try:
        closed = apparatus_rates(spec, shift, detector, dim, probes)
    except CutoffTooSmallError:
        return
    fock_route = expected_rates(apparatus_povm(spec, shift, detector, dim), probes)
    assert np.max(np.abs(closed - fock_route)) <= COHERENT_TAIL_TOL


@pytest.mark.parametrize("detector", [IDEAL_DETECTOR, LAB_DETECTOR], ids=["ideal", "lab"])
def test_a_probe_at_the_shift_reads_the_vacuum_weight(detector):
    # lambda = |g - s|^2 = 0 leaves only n = 0: the rate is (1 - nu) w_0
    # exactly, with no log(0) warning (which this suite turns into an error)
    shift = complex(ALPHA)
    rates = apparatus_rates(OPERATING_SPEC, shift, detector, DIM, PROBES)
    D = displacement_operator(shift, DIM).entries
    keep = _partition([t.amps for t in scs_projectors(OPERATING_SPEC, DIM)], D)
    assert rates[0] == (1.0 - detector.nu) * _outcome_weights(keep, detector.eta)[0]


# the extreme floats of the CLI property test that lie in [0, 1]
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    eta=st.one_of(_UNIT, st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-9, 1e-4, 1.0])),
    keep=st.lists(st.booleans(), min_size=2, max_size=101),
)
@example(eta=0.5, keep=[True] * 25)
def test_counting_weights_are_chances_within_the_povm_floor(eta, keep):
    # the rows of B_eta sum to 1 within a few ulps only (1 + 5.8e-15 at
    # eta = 0.5, n_max = 24): 0 <= w <= 1 holds within the POVM floor
    w = _outcome_weights(np.array(keep), eta)
    assert np.all(w >= -EIGENVALUE_FLOOR) and np.all(w <= 1.0 + EIGENVALUE_FLOOR)


def test_a_counting_weight_beyond_the_floor_is_rejected(monkeypatch):
    D = displacement_operator(0.3, DIM).entries
    targets = [t.amps for t in scs_projectors(OPERATING_SPEC, DIM)]
    assert np.all(_apparatus_spectrum(targets, D, LAB_DETECTOR) <= 1.0)
    monkeypatch.setattr(experiment, "_outcome_weights", lambda keep, eta: np.full(keep.shape, 1.0 + 1e-6))
    with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
        _apparatus_spectrum(targets, D, LAB_DETECTOR)


def test_default_displacement_schedule():
    menu = default_displacement_schedule()
    assert len(menu) == 9
    assert menu[0] == 0j
    radii = [abs(b) for b in menu]
    assert radii == sorted(radii)
    spec = ScsMeasurementSpec.from_c0sq(ALPHA, 0.5, 0.0)
    beta = optimize(spec, IDEAL_DETECTOR, TruncationDim(20)).beta_opt
    assert radii[-1] == pytest.approx(abs(beta), abs=1e-12)
    steps = np.diff(radii)
    assert np.max(np.abs(steps - steps[0])) < 1e-12


def test_reconstruction_sweep_compensation_wins():
    camp = Campaign(probes=PROBES, detector=LAB_DETECTOR, rng_seed=7)
    menu = default_displacement_schedule()
    points = reconstruction_sweep(ReconstructionPlan(camp, np.arange(0.5, 1.0001, 0.1), [0.0], DIM, menu))
    assert len(points) == 6
    for p in points:
        assert isinstance(p, ReconstructionPoint)
        assert p.f_compensated > p.f_raw
        assert p.f_ideal > p.f_raw
        menu_gap = min(abs(abs(p.displacement) - abs(b)) for b in menu)
        assert menu_gap < 1e-12
    assert points[-1].c0sq == pytest.approx(1.0)
    assert points[-1].displacement == 0j  # parity endpoint needs no displacement


def test_reconstruction_sweep_deterministic_and_unquantized():
    camp = Campaign(probes=PROBES, detector=LAB_DETECTOR, rng_seed=5)
    weights = [0.55, 0.7, 0.9]
    a = reconstruction_sweep(ReconstructionPlan(camp, weights, [0.0], DIM))
    b = reconstruction_sweep(ReconstructionPlan(camp, weights, [0.0], DIM))
    assert a == b
    # with no menu, the displacements of all points come from one optimizer
    # pass, each the optimum of its point alone, none snapped to 0
    for point, c0sq in zip(a, weights):
        spec = ScsMeasurementSpec.from_c0sq(ALPHA, c0sq, 0.0)
        assert point.displacement == optimize(spec, IDEAL_DETECTOR, DIM).beta_opt
        assert point.c0sq == c0sq and point.phi == 0.0
    for c0sq_values, phi_values in (([], [0.0]), (weights, [])):
        with pytest.raises(ValueError, match="must not be empty"):
            ReconstructionPlan(camp, c0sq_values, phi_values, DIM)


def _spy(monkeypatch, name, record, module=experiment):
    real = getattr(module, name)

    def spy(*args):
        record(*args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)


def test_every_row_of_a_sweep_draws_its_own_seed(monkeypatch):
    # row r, in phi-major output order, draws with rng_seed + r, so no two
    # rows share a click stream
    seeds = []
    _spy(monkeypatch, "draw_counts", lambda rates, campaign: seeds.append(campaign.rng_seed))
    camp = Campaign(probes=PROBES, detector=LAB_DETECTOR, rng_seed=5)
    points = reconstruction_sweep(ReconstructionPlan(camp, [0.55, 0.7, 0.9], [0.0, 1.2], DIM))
    assert [(p.phi, p.c0sq) for p in points] == [(phi, c) for phi in (0.0, 1.2) for c in (0.55, 0.7, 0.9)]
    assert seeds == list(range(5, 11))


def test_a_sweep_builds_no_fock_truth(monkeypatch):
    # every row draws its clicks from the closed-form probe rates: no truth
    # POVM, and no coherent state per probe (the cat basis is warmed first,
    # as the search of any sweep leaves it)
    cat_basis(ALPHA, DIM)
    calls = []
    _spy(monkeypatch, "_counting_povm", lambda *args: calls.append("_counting_povm"))
    _spy(monkeypatch, "coherent_state", lambda *args: calls.append("coherent_state"))
    _spy(monkeypatch, "coherent_state", lambda *args: calls.append("coherent_state"), module=fock)
    camp = Campaign(probes=PROBES, detector=LAB_DETECTOR, rng_seed=5)
    points = reconstruction_sweep(ReconstructionPlan(camp, [0.55, 0.7, 0.9], [0.0, 1.2], DIM))
    assert len(points) == 6 and calls == []



def test_a_sweep_row_builds_one_click_table(monkeypatch):
    # the raw and the loss-compensated reconstruction both read the row's
    # drawn table by position: no second table relabels its rows
    built = []
    check = ClickTable.__post_init__

    def counted(table):
        built.append(table.probe_amplitudes)
        check(table)

    monkeypatch.setattr(ClickTable, "__post_init__", counted)
    camp = Campaign(probes=PROBES, detector=LAB_DETECTOR, rng_seed=5)
    points = reconstruction_sweep(ReconstructionPlan(camp, [0.55, 0.7, 0.9], [0.0, 1.2], DIM))
    assert len(points) == 6 and built == [PROBES.amplitudes()] * 6

def sweep_against_the_oracle(plan: ReconstructionPlan) -> dict:
    """Run a sweep and check each row's f_raw and f_compensated, bit for bit,
    against ``oracles.pipeline`` on the table that row drew.  Returns how
    many out-of-box series fits (``solve_phi`` calls) and boundary
    likelihood fits (``_barrier_newton`` calls) the sweep made."""
    tables, calls = [], {"solve_phi": [], "_barrier_newton": []}
    real = experiment.draw_counts

    def drawn(rates, campaign):
        tables.append(real(rates, campaign))
        return tables[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "draw_counts", drawn)
        for name, log in calls.items():
            _spy(mp, name, lambda *args, log=log: log.append(args), module=tomography)
        points = reconstruction_sweep(plan)
    for point, spec, table in zip(points, plan.search.specs, tables, strict=True):
        for probes, got in ((plan.campaign.probes, point.f_raw), (plan.compensated, point.f_compensated)):
            assert got == measurement_fidelity(oracles.pipeline(table, probes).povm, spec)
    return {name: len(log) for name, log in calls.items()}


def test_a_sweep_reaches_out_of_box_fits_and_boundary_rows_like_the_oracle():
    # 100 shots put series fits outside their box, and c0^2 = 1 puts the
    # likelihood optimum on the boundary
    camp = Campaign(probes=PROBES, shots_per_probe=100, detector=LAB_DETECTOR, rng_seed=3)
    counts = sweep_against_the_oracle(ReconstructionPlan(camp, [0.6, 0.9, 1.0], [0.0, 1.0], DIM))
    assert counts["solve_phi"] > 0 and counts["_barrier_newton"] > 0


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    shots=st.sampled_from([20, 100, 1_000, 200_000]),
    seed=st.integers(0, 2**40),
    c0sqs=st.lists(st.sampled_from([0.5, 0.6, 0.75, 0.9, 1.0]), min_size=1, max_size=4),
    phis=st.lists(st.floats(0.0, math.pi), min_size=1, max_size=2),
    quantize=st.booleans(),
)
def test_every_sweep_row_reconstructs_as_its_table_does_alone(shots, seed, c0sqs, phis, quantize):
    camp = Campaign(probes=PROBES, shots_per_probe=shots, detector=LAB_DETECTOR, rng_seed=seed)
    menu = default_displacement_schedule(ALPHA) if quantize else None
    sweep_against_the_oracle(ReconstructionPlan(camp, c0sqs, phis, DIM, menu))


@pytest.mark.parametrize("phis", [[0.0, 1.2], [0.0, 0.4, 0.8, 1.2]], ids=["6-rows", "12-rows"])
def test_a_sweep_fits_each_series_in_one_stacked_solve_per_probe_set(monkeypatch, phis):
    # the rows' tables are reconstructed as one stack per probe set (raw and
    # compensated), each fitting every row's outcome-0 series of one parity
    # in one stacked call, however many rows the sweep has
    fits = []
    _spy(monkeypatch, "_series_fits", lambda f, probes, parity: fits.append((len(f), parity)), module=tomography)
    camp = Campaign(probes=PROBES, detector=LAB_DETECTOR, rng_seed=5)
    points = reconstruction_sweep(ReconstructionPlan(camp, [0.55, 0.7, 0.9], phis, DIM))
    assert fits == [(len(points), 0), (len(points), 1)] * 2


def test_a_plan_checks_the_cutoff_of_every_probe_before_the_search(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a search ran with a probe beyond the cutoff")

    monkeypatch.setattr(fidelity_module, "_search_displacements", never)
    camp = Campaign(probes=ProbeSet(ALPHA, (0.2, 5.0)), detector=LAB_DETECTOR)
    with pytest.raises(CutoffTooSmallError, match="5j.*n_max=24"):
        ReconstructionPlan(camp, [0.5], [0.0], DIM)


@pytest.mark.parametrize("stack", [None, 4])
def test_a_sweep_searches_once_and_builds_d_in_stacks(monkeypatch, stack):
    # every row shares alpha: one search pass over the whole grid, and one D
    # build per stack of at most _STACK rows, both in the search plan's stacks
    searches, stacks = [], []
    _spy(monkeypatch, "_search_displacements", lambda specs, *_: searches.append(len(specs)), module=fidelity_module)
    _spy(monkeypatch, "_guarded_displacements", lambda betas, dim: stacks.append(len(betas)), module=fidelity_module)
    if stack is not None:
        monkeypatch.setattr(fidelity_module, "_STACK", stack)
    camp = Campaign(probes=PROBES, detector=LAB_DETECTOR, rng_seed=5)
    points = reconstruction_sweep(ReconstructionPlan(camp, [0.55, 0.7, 0.9], [0.0, 1.2], DIM))
    assert len(points) == 6 and searches == [6]
    assert stacks == ([6] if stack is None else [4, 2])



def test_snap_keeps_the_phase_and_takes_the_lower_level_on_a_tie():
    levels = [0.5, 0.1, 0.3]  # a menu's levels come in menu order, unsorted
    assert experiment._snap(0.29, levels) == pytest.approx(0.3)
    assert experiment._snap(0.5, [0.75, 0.25]) == 0.25
    q = experiment._snap(0.4j, levels)
    assert abs(q) == pytest.approx(0.5) and q.real == pytest.approx(0.0)
    assert experiment._snap(0.0, levels) == 0.1

@pytest.mark.parametrize(
    "menu, error, fragment",
    [
        ((), ValueError, "schedule must not be empty"),
        ([0.1, math.inf], ValueError, "must be finite"),
        ([math.nan], ValueError, "must be finite"),
        ([0.3, 2.5], CutoffTooSmallError, "unitarity defect"),
    ],
    ids=["empty", "inf", "nan", "beyond-cutoff"],
)
def test_reconstruction_sweep_rejects_a_bad_menu_before_the_search(monkeypatch, menu, error, fragment):
    def never(*args, **kwargs):
        raise AssertionError("a search ran with a bad menu")

    monkeypatch.setattr(fidelity_module, "_search_displacements", never)
    with pytest.raises(error, match=fragment):
        ReconstructionPlan(Campaign(probes=PROBES, detector=LAB_DETECTOR), [0.5, 0.7], [0.0], DIM, menu)


@pytest.mark.parametrize("quantize", [True, False])
def test_reconstruction_sweep_scores_f_ideal_like_the_ideal_povm(quantize):
    # f_ideal comes from the click-fidelity kernel, not from an assembled
    # POVM; both use the same Fock model and photon-number partition
    camp = Campaign(probes=PROBES, detector=LAB_DETECTOR, rng_seed=11)
    menu = default_displacement_schedule() if quantize else None
    points = reconstruction_sweep(ReconstructionPlan(camp, [0.5, 0.65, 0.8, 1.0], [0.0, 1.2], DIM, menu))
    assert len(points) == 8
    for point in points:
        spec = ScsMeasurementSpec.from_c0sq(ALPHA, point.c0sq, point.phi)
        pair = displaced_povm(spec, point.displacement, IDEAL_DETECTOR, DIM)
        assert abs(point.f_ideal - fidelity(pair, spec)) <= 1e-12
