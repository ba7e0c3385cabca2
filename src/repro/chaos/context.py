"""The ambient chaos profile.

The CLI (or a test) *activates* one
:class:`~repro.chaos.profiles.ChaosProfile`, and every access network
built while it is active (see
:func:`repro.net.topology.access_network`) gets the profile's
impairments attached automatically — the ``--chaos`` flag instruments
experiments without changing a single experiment signature.  The
profile is the ``chaos`` slot of the run context
(:mod:`repro.telemetry.context`).

This module is import-light on purpose: the topology builder imports
it, and the chaos package imports the network substrate, so this file
is the cycle-breaker.
"""

from __future__ import annotations

from repro.telemetry.context import ambient, scope

__all__ = ["current_profile", "activated"]


def current_profile():
    """The active chaos profile, or None when chaos is off."""
    return ambient.chaos


def activated(profile):
    """Activate ``profile`` for the duration of a ``with`` block."""
    return scope(chaos=profile)
