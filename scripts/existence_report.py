#!/usr/bin/env python3
"""Picard convergence audit across noise intensities.

For each jump-measure mass, estimates sup_x E|u_n - u_{n-1}|^2 over an
ensemble, checks the moment recursion against the kernel bound, and
prints the decay of sqrt(sup_t H_n) per iterate.  The contraction factor
should track v * lip^2 * nu_T, so pushing the mass up makes the decay
slower but (for these defaults) never breaks it.
"""

import argparse
import pathlib
import sys

import numpy as np

import levyfield as lf


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kernel", choices=("wave", "heat"), default="wave")
    ap.add_argument("--masses", type=float, nargs="+",
                    default=[2.0, 5.0, 10.0])
    ap.add_argument("--n", type=int, default=200, help="ensemble size")
    ap.add_argument("--n-iter", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default="out/existence")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    window = lf.SpaceTimeWindow(1.0, 2.0)
    kernel = lf.wave_kernel() if args.kernel == "wave" else lf.heat_kernel()
    problem = lf.ProblemSpec(kernel=kernel,
                             sigma=lf.named_map("affine", 0.5, 1.0),
                             ic_kind="cosine", window=window)

    all_ok = True
    for mass in args.masses:
        measure = lf.two_point_measure(1.0, mass)
        try:
            rep = lf.existence_diagnostics(problem, measure,
                                           n_realizations=args.n,
                                           n_iter=args.n_iter,
                                           master_seed=args.seed)
        except lf.SolverError as exc:    # e.g. --n-iter below 2
            print(f"error: {exc}", file=sys.stderr)
            return 1
        path = outdir / f"existence_{args.kernel}_mass{mass:g}.csv"
        rep.to_csv(path)
        contraction = measure.second_moment * problem.sigma.lipschitz ** 2 \
            * kernel.cumulative_square_integral(window.T)
        sups = np.sqrt(np.nanmax(rep.h_values, axis=1))
        print(f"\nmass {mass:g}  (nominal contraction "
              f"v*lip^2*nu_T = {contraction:.3f})")
        print(f"  sqrt(sup_t H_n): "
              + "  ".join(f"{s:.2e}" for s in sups))
        print(f"  recursion bound ok: {rep.recursion_ok}   "
              f"decay ok: {rep.decay_ok}   K-hat bounded: {rep.bounded_ok}")
        print(f"  -> {path}")
        all_ok = all_ok and rep.passed

    print(f"\noverall: {'pass' if all_ok else 'FAIL'}")
    return 0 if all_ok else 2


if __name__ == "__main__":
    sys.exit(main())
