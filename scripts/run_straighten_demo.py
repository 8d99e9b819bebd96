"""Straighten two benchmark systems and print the convergence traces.

Left: f_n(z) = (1 - 1/(n+1)^2) z, whose composition telescopes to z/2.
Right: f_n(z) = z^2 along the backward orbit w_n = 0.5^(2^-n).
"""

import argparse

from ifslab.holomap import Monomial
from ifslab.ifs import BackwardOrbit, GeneratorStream, stream_from_json
from ifslab.straighten import left_straighten, right_straighten


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-N", "--horizon", type=int, default=1000)
    ap.add_argument("--depth", type=int, default=40, help="backward orbit length")
    args = ap.parse_args()

    stream = stream_from_json({"type": "rule", "name": "scale_product", "params": {"power": 2}})
    res = left_straighten(stream, args.horizon)
    print(f"left telescoping, N = {args.horizon}:")
    print(f"  steps run          {res.steps}")
    print(f"  converged          {res.converged}")
    print(f"  window residual    {res.window_residual:.3e}")
    print(f"  H(0.5), target 1/4 {res.h_at_probe:.12f}")
    print(f"  distortion at 0    {res.distortion_trace[-1]:.12f} (limit 1/2)")

    squaring = GeneratorStream.from_cycle([Monomial(2)])
    orbit = BackwardOrbit(tuple(0.5 ** (2.0 ** -n) for n in range(args.depth + 1)))
    res = right_straighten(squaring, orbit)
    print(f"\nright squaring, depth {args.depth}:")
    print(f"  steps run          {res.steps}")
    print(f"  distortion at 0    {res.distortion_trace[-1]:.12f}")
    ring = [abs(h) for h in res.h_grid[-8:]]
    print(f"  |H| on outer ring  [{min(ring):.4f}, {max(ring):.4f}] (nonconstant)")


if __name__ == "__main__":
    main()
