"""Reconstruct a lossy displaced on/off detector from simulated clicks.

Models the full apparatus (loss, dark counts, finite interference
visibility), samples 2e5 shots per probe state, runs the reconstruction
pipeline and compares the result against the modeled truth projected onto
the cat-state basis.
"""
import math

import numpy as np

from catproj.experiment import (
    Campaign,
    apparatus_povm,
    draw_counts,
    effective_displacement,
    expected_rates,
)
from catproj.fock import ScsMeasurementSpec, TruncationDim, scs_basis_project
from catproj.povm import DetectorModel
from catproj.tomography import ProbeSet, error_bars, tomography_pipeline

ALPHA = 0.499
DIM = TruncationDim(24)


def main() -> None:
    spec = ScsMeasurementSpec.from_c0sq(ALPHA, 0.5, math.pi / 2)
    detector = DetectorModel(eta=0.689, nu=5.32e-5, visibility=0.998)
    shift = effective_displacement(0.894j, detector)
    truth = apparatus_povm(spec, shift, detector, DIM)

    probes = ProbeSet(ALPHA, (0.2, 0.3))
    campaign = Campaign(probes=probes, detector=detector, rng_seed=7)
    clicks = draw_counts(expected_rates(truth, probes), campaign)
    run = tomography_pipeline(clicks, probes)

    with np.printoptions(precision=3, suppress=True):
        print("modeled truth, cat-basis projection:")
        print(scs_basis_project(truth.pi0, ALPHA))
        print("\nreconstruction from sampled clicks:")
        print(run.povm.pi0)
    diag = run.povm.diagnostics
    print(f"\nconverged: {diag['converged']} after {diag['iterations']} iterations")

    lo, hi = error_bars(run, alpha_sigma=0.011)["pi0_11_re"]
    print(f"probe-amplitude uncertainty band for the (1,1) entry: [{lo:.3f}, {hi:.3f}]")


if __name__ == "__main__":
    main()
