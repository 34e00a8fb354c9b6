"""Continuous-time mediation demo on a linear Hawkes system.

Builds the five-process model (treatment A, mediator M, outcome D, observed
confounder L, latent driver U; U unobserved), recovers the direct and
mediated branching effects exactly from the model covariance, then repeats
the identification from a long simulated event stream.
"""

import argparse

import numpy as np

from medgraph import hawkes as hk


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--t-end", type=float, default=5e4,
                   help="simulation horizon for the empirical pass")
    p.add_argument("--bin-width", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    return p.parse_args()


def main():
    args = parse_args()
    model = hk.fig7_model(g_ma=0.4, g_da=0.3, g_dm=0.4, g_ml=0.3, g_dl=0.3,
                          g_lu=0.35, g_du=0.3,
                          mu=np.array([0.6, 0.5, 0.5, 0.4, 0.5]), beta=2.0)
    diag = hk.validate(model)
    print(f"spectral radius = {diag.spectral_radius:.4f} "
          f"(subcritical: {diag.subcritical})")

    truth = hk.decompose_effects(model)
    exact = hk.identify(hk.integrated_cov_exact(model))
    print("exact identification from the model covariance:")
    print(f"  direct   {exact.direct:.6f}  (true {truth['direct']:.6f})")
    print(f"  mediated {exact.mediated:.6f}  (true {truth['mediated']:.6f})")

    stream = hk.simulate(model, args.t_end, seed=args.seed)
    print(f"simulated {len(stream.times)} events up to T={args.t_end:g}")
    est = hk.identify_stream(model, stream, args.bin_width)
    print("empirical identification from the simulated stream:")
    print(f"  direct   {est.direct:.6f}  (true {truth['direct']:.6f})")
    print(f"  mediated {est.mediated:.6f}  (true {truth['mediated']:.6f})")


if __name__ == "__main__":
    main()
