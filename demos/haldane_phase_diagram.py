"""Map out the Haldane phase diagram and pin down its boundary.

The model's ground band carries Chern number +1 or -1 inside the two lobes
|m| < 3*sqrt(3)*t2*|sin(phi)| and 0 outside.  We scan a (phi, m) grid with
the Berry-plaquette engine, render the labels as text, and then locate the
boundary constant as the zero of h(k, m) where the gap closes, with the
charge of that Dirac point.
"""

import math

from chernkit import builtin_model, critical_points, locate_transition, scan

SYMBOLS = {0: ".", 1: "+", -1: "-", "DEGENERATE": "*", None: "?"}


def main() -> None:
    haldane = builtin_model("haldane")

    print("scanning a 25 x 17 (phi, m) grid at t2 = 1 ...")
    diagram = scan(
        haldane,
        [("phi", -math.pi, math.pi, 25), ("m", -6.5, 6.5, 17)],
        grid=32,
        kgrid=24,
    )
    labels = diagram.labels()

    print()
    print("     m ->  -6.5 ... +6.5   (columns)")
    for i in range(labels.shape[0]):
        row = "".join(SYMBOLS[labels[i, j]] for j in range(labels.shape[1]))
        phi = -math.pi + i * 2 * math.pi / 24
        print(f"phi {phi:+5.2f}  {row}")
    print()
    print("legend:  + C=+1   - C=-1   . trivial   * gap closed")

    print()
    print("boundary constant (phi = pi/2, t2 = 1):")
    m_star = locate_transition(haldane, "m", 4.0, 6.0, params={"t2": 1.0})
    print(f"  located:     m* = {m_star:.12f}")
    print(f"  closed form: 3*sqrt(3) = {3 * math.sqrt(3):.12f}")
    for point in critical_points(haldane, "m", 4.0, 6.0, params={"t2": 1.0}):
        kx, ky = point.k
        print(f"  critical point: m = {point.param:.12f} at k = ({kx:+.6f}, {ky:+.6f}),"
              f" charge {point.charge:+d}, so C changes by {-point.charge:+d}")

    print()
    print("probe values on the phi = pi/2 line (t2 = 0.5, boundary at 2.598...):")
    from chernkit import chern_berry_lattice

    for m in (0.0, 1.5, 2.5, 3.0, 4.0):
        c = chern_berry_lattice(haldane, {"m": m}, grid=60).value
        print(f"  m = {m:3.1f}  ->  C = {c:+d}")


if __name__ == "__main__":
    main()
