"""The Gaussian corner as an external oracle.

At alpha = 2 stable weights are Gaussian, and the limit of a wide CNN is a
Gaussian process whose covariance obeys its own well-known recursion.  The
spectral-measure pipeline must agree with that recursion computed directly,
without any stable machinery; this is the strongest end-to-end cross-check
available, since the two paths share almost no code.
"""

import numpy as np

import stableconv as sc

layer = sc.ConvLayerConfig(spatial_in=4, filter_shape=3, stride=1, padding=1)
inputs = sc.input_tensor(np.random.default_rng(0).standard_normal((1, 4, 2)))
spec = sc.NetworkSpec(
    alpha=2.0, sigma_w=1.0, sigma_b=1.0, layers=(layer, layer),
    activation=sc.get_activation("tanh"), channels=64, inputs=inputs, seed=11,
)

lcfg = sc.LimitConfig(mc_samples=20_000, seed=8)
print("covariance implied by the alpha=2 limit measure (diagonal):")
print(" ", np.round(np.diag(sc.implied_covariance(sc.limit_measures(spec, lcfg)[-1])), 4))
print("covariance from the direct Gaussian recursion (diagonal):")
# drawn from the fixed seed of the check below, which compares these two
# matrices and returns the rows of the CLI's oracle.csv, metric -> value
oracle_rng = np.random.default_rng(sc.verify._ORACLE_SEED)
print(" ", np.round(np.diag(sc.gaussian_kernel_recursion(spec, lcfg.mc_samples, oracle_rng)), 4))
report = sc.gaussian_oracle_check(spec, lcfg)
print(f"max diagonal relative error: {report['max_diag_rel_err']:.4f}")
print(f"max off-diagonal absolute error: {report['max_offdiag_abs_err']:.4f}")

# relu is admissible here (and only here): the envelope gate is alpha-aware
relu_spec = sc.NetworkSpec(
    alpha=2.0, sigma_w=0.8, sigma_b=0.3, layers=(layer, layer),
    activation=sc.get_activation("relu"), channels=64, inputs=inputs, seed=11,
)
relu_report = sc.gaussian_oracle_check(relu_spec, sc.LimitConfig(mc_samples=20_000, seed=9))
print(f"\nsame check with relu at alpha=2: diag rel err "
      f"{relu_report['max_diag_rel_err']:.4f}")

try:
    sc.NetworkSpec(
        alpha=1.5, sigma_w=1.0, sigma_b=1.0, layers=(layer,),
        activation=sc.get_activation("relu"), channels=4, inputs=inputs, seed=0,
    )
except ValueError as exc:
    print(f"\nrelu below alpha=2 is rejected: {exc}")
