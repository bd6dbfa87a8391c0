"""
The two large-torus dichotomies
===============================

For m, n at or above the supported floors, the span of C_m x C_n is
settled by arithmetic on gcd(m, n).  Each answer ships with a
certificate: an explicit labeling where a construction exists, or a
machine-checked chain of finite facts where one does not.
"""

from lpqcycles import ProductKind, lambda_cartesian, lambda_strong, torus, validate

# cartesian: span 4 exactly when gcd >= 3, else span 5
for m, n in [(40, 45), (42, 42), (41, 40), (43, 40)]:
    res = lambda_cartesian(m, n)
    print(f"cartesian {m}x{n}: lambda = {res.value}  [{res.certificate.value}]")

# the span-4 answers carry a validating witness
res = lambda_cartesian(40, 45)
print("witness checks out:", validate(torus(ProductKind.CARTESIAN, 40, 45), res.witness) == [])

# strong: three regimes by divisibility
for m, n in [(49, 56), (90, 135), (48, 50)]:
    res = lambda_strong(m, n)
    if res.is_exact:
        print(f"strong {m}x{n}: lambda = {res.value}  [{res.certificate.value}]")
    else:
        print(f"strong {m}x{n}: lambda in [{res.lo}, {res.hi}]  [{res.certificate.value}]")

# below the floors the dichotomies stay silent; opt into exact search
res = lambda_strong(7, 7, solve=True)
print("solved small case: lambda(C_7 x C_7 strong) =", res.value)
