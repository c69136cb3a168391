"""Finite-blocklength distortion bounds for short binary codes, with
broadcast extensions, exact brute-force oracles, and grid verifiers.

Each public name is imported from its submodule on first use (PEP 562), so
`import jsccbounds` loads no submodule, and a command loads only the
modules it calls.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "binary_info": (
        "DEFAULT_BUDGET", "NAT_LOG2", "BudgetExceeded", "DomainError", "Phi", "R",
        "beta", "conv", "g", "h_b", "h_b_inv", "h_b_prime", "info_fn", "kappa",
        "mgl_phi", "mgl_phi_deriv", "nu", "phi", "psi", "vartheta",
    ),
    "bounds_core": (
        "LowerBoundReport", "SystemParams", "d_asym", "d_asym_deriv", "eta",
        "expected_sphere_floor", "f_factor", "gamma_corr", "gap_lower_bound",
        "gap_rhs", "separation_upper", "sphere_floor", "sphere_floor_at_weight",
        "sum_distortion_lb", "tau_star",
    ),
    "broadcast_region": (
        "BinaryBroadcastParams", "ErasureParams", "GaussianBroadcastParams",
        "RegionPoint", "d1_feasibility_margin", "d2_floor", "d2_floor_slack",
        "erasure_d2_floor", "fp_binary", "g_bec", "g_bsc", "g_spherical_ub",
        "gaussian_bound", "gaussian_d2_floor", "gaussian_fp", "gaussian_gq",
        "gaussian_rate", "gaussian_rbar", "outer_bound_slack", "rbar_binary",
        "region_trace",
    ),
    "oracles": (
        "ALL_SUITES", "EncoderTable", "ExactValue", "FrontierPoint",
        "ViolationReport", "binomial_gamma_approx", "binomial_gamma_exact",
        "broadcast_frontier", "converse_search_gq", "coupling_distance_exact",
        "encoder_from_index", "p2p_bruteforce", "rbar_grid", "sphere_bruteforce",
        "verify_inequalities",
    ),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + mod, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
