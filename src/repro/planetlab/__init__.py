"""Synthetic Internet-path and home-network populations (the PlanetLab
substitute; see DESIGN.md for the substitution rationale)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "homenet": (
        "HOME_PROFILES", "HomeNetworkProfile", "build_home_path",
        "home_profile", "server_rtts", "to_path_spec",
    ),
    "paths": ("PathPopulation", "PathSpec", "build_path"),
})
