"""Synthetic click-data campaigns for detector tomography.

Bridges the noiseless POVM models to the statistics an actual run would
produce: a :class:`Campaign` fixes the probe set, shot budget, detector
imperfections and RNG seed; :func:`draw_counts` draws seeded binomial click
tables from a vector of outcome-0 probe rates, which :func:`apparatus_rates`
gives in closed form for the lab apparatus, with no Fock POVM built, and
:func:`expected_rates` reads off any truth POVM; a
:class:`ReconstructionPlan` checks a (phi, c0^2) grid of target
superpositions once; and ``reconstruction_sweep(plan)`` replays the full
measure-and-reconstruct loop over it, reconstructing all rows' clicks as one
stack at the physical probe amplitudes and one at the loss-compensated ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from .fidelity import SearchPlan, _search_displacements
from .fock import (
    ScsMeasurementSpec,
    TruncationDim,
    _coherent_magnitudes,
    _logfact,
    as_dim,
    coherent_state,
    displacement_operator,
    expect,
    max_guarded_amplitude,
    scs_projectors,
)
from .povm import (
    EIGENVALUE_FLOOR,
    IDEAL_DETECTOR,
    DetectorModel,
    PovmPair,
    _counting_povm,
    _outcome_weights,
    _partition,
)
from .tomography import ClickTable, ProbeSet, _reconstruct, measurement_fidelity

DEFAULT_SHOTS = 200_000
# interferometric drive amplitude -> induced coherent shift on the signal mode
DRIVE_TO_SHIFT = 0.5
RATE_TOL = 1e-9
_SEED_LIMIT = 2**64
# numpy's binomial draws take an int64 trial count
_SHOTS_LIMIT = 2**63
# the default displacement menu: its size, and the cutoff of its top amplitude's search
SCHEDULE_LEVELS = 9
SCHEDULE_DIM = TruncationDim(20)


@dataclass(frozen=True)
class Campaign:
    """One tomography acquisition plan: what to probe, how often, with what."""

    probes: ProbeSet
    shots_per_probe: int = DEFAULT_SHOTS
    detector: DetectorModel = IDEAL_DETECTOR
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.shots_per_probe, int) or not 0 < self.shots_per_probe < _SHOTS_LIMIT:
            raise ValueError("shots_per_probe must be a positive integer below 2^63")
        if not isinstance(self.rng_seed, int) or not 0 <= self.rng_seed < _SEED_LIMIT:
            raise ValueError("rng_seed must be a 64-bit unsigned integer")

    def compensated_probes(self) -> ProbeSet:
        """The probe set with every amplitude scaled by sqrt(eta): the
        amplitudes that reach the counter, which undo the loss channel exactly
        for coherent inputs."""
        root_eta = math.sqrt(self.detector.eta)
        return ProbeSet(root_eta * self.probes.alpha, tuple(root_eta * g for g in self.probes.gammas))


def expected_rates(truth: PovmPair, probes: ProbeSet) -> np.ndarray:
    """Exact outcome-0 probability for every probe state, in probe order, on
    the truth POVM's own cutoff."""
    return np.array(
        [expect(truth.pi0, coherent_state(a, truth.dim)).real for a in probes.amplitudes()]
    )


def draw_counts(rates, campaign: Campaign) -> ClickTable:
    """Draw a seeded binomial click table from the outcome-0 rate of every
    probe, in probe order.

    Each probe gets its own counter-based stream keyed by the unsigned
    64-bit pair ``(rng_seed, probe_index)``, so tables are bit-for-bit
    reproducible and probes can be generated in any order or in parallel.
    One Philox serves the table, reset before each probe to a new one's state.
    A rate outside [0, 1] by more than ``RATE_TOL`` raises ValueError.
    """
    bits = np.random.Philox(key=np.array([campaign.rng_seed, 0], dtype=np.uint64))
    rng, fresh = np.random.Generator(bits), bits.state
    counts0 = np.empty(len(rates))
    for i, rate in enumerate(rates):
        if not -RATE_TOL <= rate <= 1.0 + RATE_TOL:
            raise ValueError(f"probe {i} has outcome probability {rate!r} outside [0, 1]")
        fresh["state"]["key"][1] = i
        bits.state = fresh
        counts0[i] = rng.binomial(campaign.shots_per_probe, min(max(rate, 0.0), 1.0))
    shots = np.full(len(rates), float(campaign.shots_per_probe))
    return ClickTable(campaign.probes.amplitudes(), counts0, shots - counts0, shots)


def effective_displacement(drive: complex, detector: DetectorModel) -> complex:
    """Coherent shift produced by a given interferometric drive amplitude."""
    return DRIVE_TO_SHIFT * detector.visibility * complex(drive)


def apparatus_povm(
    spec: ScsMeasurementSpec,
    shift: complex,
    detector: DetectorModel,
    dim,
) -> PovmPair:
    """Model of the lab measurement: lossy displaced click detection.

    The ideal partition projector at ``shift`` is degraded by the detection
    efficiency (the loss acts between the displacement and the counter, and
    maps the diagonal projector to a diagonal one) and scaled by the
    no-dark-count probability:

        P0 = (1 - nu) * D(shift) L_eta[ P_omega0 ] D(shift)^dag
    """
    dim = as_dim(dim)
    D = displacement_operator(shift, dim).entries
    return _counting_povm(D, dim, [t.amps for t in scs_projectors(spec, dim)], detector.eta, detector.nu)


def _check_probe_cutoff(amplitudes, dim: TruncationDim) -> None:
    """Raise CutoffTooSmallError, as ``coherent_state`` would, unless the
    cutoff holds every amplitude, in order."""
    for amplitude in amplitudes:
        _coherent_magnitudes(amplitude, dim)


def _apparatus_spectrum(targets, D: np.ndarray, detector: DetectorModel) -> np.ndarray:
    """The spectrum s = (1 - nu) B_eta m of the lab's outcome-0 element
    P0 = D diag(s) D^dag (``povm._counting_elements``) for a guarded D or a
    stack, with m the partition of the target amplitude arrays read off the
    same D.

    Invariant: the weights w = B_eta m are chances, so w in [0, 1] and
    1 - nu in (0, 1] give 0 <= P0 <= I.  That holds up to rounding only:
    the rows of B_eta sum to 1 within a few ulps, so w is checked against
    the POVM floor ``EIGENVALUE_FLOOR`` that ``PovmPair.checked`` applies,
    and a w beyond it raises ValueError."""
    w = _outcome_weights(_partition(targets, D), detector.eta)
    low, high = float(w.min()), float(w.max())
    if not (low >= -EIGENVALUE_FLOOR and high <= 1.0 + EIGENVALUE_FLOOR):
        raise ValueError(f"counting weights span [{low!r}, {high!r}], outside [0, 1]")
    return (1.0 - detector.nu) * w


def _probe_rates(amplitudes, shift: complex, spectrum: np.ndarray) -> np.ndarray:
    """The outcome-0 rate <g|D diag(s) D^dag|g> of every coherent probe g, in
    closed form: D(shift)^dag |g> is |g - shift> up to a phase, so the rate is
    sum_{n <= n_max} s_n e^{-lam} lam^n / n! with lam = |g - shift|^2, and
    exactly s_0 at lam = 0."""
    lam = np.abs(np.asarray(amplitudes, dtype=complex) - shift)[:, None] ** 2
    n = np.arange(spectrum.size)
    hit = lam > 0.0
    log_lam = np.log(np.where(hit, lam, 1.0))
    poisson = np.where(hit, np.exp(n * log_lam - lam - _logfact(spectrum.size - 1)), n == 0)
    return poisson @ spectrum


def apparatus_rates(spec: ScsMeasurementSpec, shift: complex, detector: DetectorModel, dim, probes: ProbeSet):
    """The outcome-0 rate of ``apparatus_povm`` at every probe of a set, in
    probe order and in closed form (``_probe_rates``), with the cutoff of
    every probe amplitude g and of every g - shift, whose Poisson tail the
    closed form drops, the guarded D(shift) and the targets checked first.
    No Fock POVM is built."""
    dim, amplitudes = as_dim(dim), probes.amplitudes()
    _check_probe_cutoff([*amplitudes, *(g - shift for g in amplitudes)], dim)
    D = displacement_operator(shift, dim).entries
    spectrum = _apparatus_spectrum([t.amps for t in scs_projectors(spec, dim)], D, detector)
    return _probe_rates(amplitudes, shift, spectrum)


@lru_cache(maxsize=16)  # a per-alpha constant, searched once per process
def default_displacement_schedule(alpha: float = 0.499) -> tuple[complex, ...]:
    """Evenly spaced amplitude menu covering the optimizer's range.

    The largest optimal displacement over c0^2 in [0.5, 1] occurs at the
    balanced superposition, so the menu runs from zero to that amplitude:
    the ideal detector's optimal ``beta`` there, from the displacement
    search alone (its fidelity is not needed).
    """
    spec = ScsMeasurementSpec.from_c0sq(alpha, 0.5, 0.0)
    (beta,) = _search_displacements([spec], IDEAL_DETECTOR, SCHEDULE_DIM)
    return tuple(complex(r, 0.0) for r in np.linspace(0.0, abs(beta), SCHEDULE_LEVELS))


def _menu_levels(menu, dim: TruncationDim) -> list[float]:
    """The amplitudes |b| of a displacement menu: at least one, all finite,
    each past the guard of its D.  A level within ``max_guarded_amplitude``,
    whose guard scan the searches already rely on, needs no D of its own."""
    levels = [abs(complex(b)) for b in menu]
    if not levels or not all(map(math.isfinite, levels)):
        raise ValueError(f"displacement schedule must not be empty and must be finite, got {levels}")
    for r in levels:
        if r > max_guarded_amplitude(dim):
            displacement_operator(r, dim)
    return levels


def _snap(beta: complex, levels) -> complex:
    """``beta`` with its modulus snapped to the nearest menu level (the lower
    one on a tie) and its phase kept: an experiment that can prepare only a
    finite menu of local-oscillator amplitudes."""
    r = abs(beta)
    nearest = min(levels, key=lambda v: (abs(v - r), v))
    return complex(nearest, 0.0) if r == 0.0 else nearest * (beta / r)


@dataclass(frozen=True)
class ReconstructionPoint:
    """One target superposition, measured and scored three ways."""

    c0sq: float
    phi: float
    displacement: complex
    f_ideal: float
    f_raw: float
    f_compensated: float


@dataclass(frozen=True)
class ReconstructionPlan:
    """A measure-and-reconstruct sweep over the (phi, c0^2) grid, checked once.

    Row ``r`` runs phi-major (every c0^2 at the first phi, then at the next)
    and draws its clicks with seed ``rng_seed + r``.  ``menu`` is ``None``,
    a list of displacement levels, or a function of alpha that gives them
    (``default_displacement_schedule``).  The constructor runs every check,
    in this order: both lists non-empty, ``from_c0sq`` for every row, the
    rows' ideal-detector ``SearchPlan``, ``_menu_levels`` unless ``menu`` is
    ``None``, the seed range of the whole grid, ``compensated_probes``, and
    the cutoff of every probe amplitude g and of |g| + R, which bounds every
    |g - shift| that the closed-form rates read: R is the search's guard
    radius or the top menu level if that is larger.  ``dim`` is the cutoff
    of the search and of the apparatus model.
    """

    campaign: Campaign
    c0sq_values: tuple
    phi_values: tuple
    dim: TruncationDim
    menu: object = None
    # derived, in row order: (phi, c0^2), the search plan of the rows' specs and the seeds; the menu's levels
    rows: tuple = field(init=False, repr=False, compare=False)
    search: SearchPlan = field(init=False, repr=False, compare=False)
    seeds: range = field(init=False, repr=False, compare=False)
    levels: list | None = field(init=False, repr=False, compare=False)
    compensated: ProbeSet = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        c0sqs, phis = tuple(map(float, self.c0sq_values)), tuple(map(float, self.phi_values))
        for name, values in (("c0sq_values", c0sqs), ("phi_values", phis)):
            if not values:
                raise ValueError(f"{name} must not be empty")
        dim, alpha, seed = as_dim(self.dim), self.campaign.probes.alpha, self.campaign.rng_seed
        rows = tuple(itertools.product(phis, c0sqs))
        search = SearchPlan([ScsMeasurementSpec.from_c0sq(alpha, c0sq, phi) for phi, c0sq in rows], IDEAL_DETECTOR, dim)
        menu = self.menu(alpha) if callable(self.menu) else self.menu
        levels = None if menu is None else _menu_levels(menu, dim)
        if seed + len(rows) > _SEED_LIMIT:
            raise ValueError(f"a {len(rows)}-row sweep from rng_seed {seed} passes the 64-bit seed range")
        derived = dict(c0sq_values=c0sqs, phi_values=phis, dim=dim, rows=rows, search=search, levels=levels)
        derived.update(seeds=range(seed, seed + len(rows)), compensated=self.campaign.compensated_probes())
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        reach = max([search.r_max, *(levels or ())])
        amplitudes = self.campaign.probes.amplitudes()
        _check_probe_cutoff([*amplitudes, *(abs(g) + reach for g in amplitudes)], dim)


def reconstruction_sweep(plan: ReconstructionPlan) -> list[ReconstructionPoint]:
    """The measure-and-reconstruct loop over every row of a plan, in row order.

    The search plan's stacks give every row's ideal optimal displacement,
    snapped to the nearest menu level if the plan has a menu, and each stack
    one guarded D(shift) and the rows' ``f_ideal``.  The same D gives each
    row's apparatus spectrum, whose closed-form probe rates the clicks are
    drawn at.  The click tables are then reconstructed as one stack twice,
    by position (``tomography._reconstruct``): ``f_raw`` at the physical
    probe amplitudes, ``f_compensated`` at those scaled by sqrt(eta).
    """
    campaign, detector = plan.campaign, plan.campaign.detector
    amplitudes = campaign.probes.amplitudes()
    snap = None if plan.levels is None else partial(_snap, levels=plan.levels)
    betas, f_ideal, rates = [], [], []
    for rows, stack_betas, D, targets, f in plan.search.stacks(snap):
        betas += stack_betas
        f_ideal.extend(f)
        for beta, seed, spectrum in zip(stack_betas, plan.seeds[rows], _apparatus_spectrum(targets, D, detector)):
            clicks = draw_counts(_probe_rates(amplitudes, beta, spectrum), replace(campaign, rng_seed=seed))
            rates.append(clicks.rates())
    raw, compensated = (_reconstruct(np.array(rates), probes) for probes in (campaign.probes, plan.compensated))
    return [
        ReconstructionPoint(c0sq, phi, beta, float(f), *(measurement_fidelity(povm, spec) for povm in pair))
        for (phi, c0sq), spec, beta, f, *pair in zip(plan.rows, plan.search.specs, betas, f_ideal, raw, compensated)
    ]
