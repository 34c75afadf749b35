"""Section-class curve counts on the rational elliptic surface.

The genus-zero series comes out of a first-order recursion against the
divisor-sum series and independently as the twelfth power of the partition
generating function; the higher-genus ladder follows from the identity
suite, whose residuals all vanish.
"""

from sumkit.elliptic import (
    f0_product,
    f0_via_ode,
    fg,
    genus1_via_fiber_recursion,
    genus1_via_fiber_sum,
    lsplit_suite,
)


def main():
    f0 = f0_via_ode(100)
    print("genus 0 series, first coefficients:",
          [str(f0.coefficient({"t": n})) for n in range(6)])
    product = f0_product(101)
    print("recursion vs product expansion through t^100:",
          f0 == product.truncate(100))

    h1 = genus1_via_fiber_recursion(100, product)
    h2 = genus1_via_fiber_sum(100, product)
    print("\ngenus-one series via the two independent splittings agree:",
          h1 == h2)
    print("its first coefficients:",
          [str(h1.coefficient({"t": n})) for n in range(4)])

    print("\ngenus ladder (each = previous times G'):")
    for g in range(0, 4):
        series = fg(g, 4, product)
        print(f"  F_{g}:", [str(series.coefficient({'t': n}))
                            for n in range(5)])

    residuals = lsplit_suite(3, 60, product)
    print("\nidentity suite residuals through t^60:",
          "all zero" if all(s.is_zero() for s in residuals.values())
          else "NONZERO")


if __name__ == "__main__":
    main()
