"""Cutoff and weight profiles along the cylinder coordinate.

Two families live here.  Cutoffs (``smoothstep``-based) have *exact* plateaus:
they vanish identically on one side of their transition interval and equal one
on the other, which several structural invariants rely on.  Weight profiles
are built from the error function instead; they are entire, so the high-order
finite-difference stencils differentiate the conjugation factor e^{w(s)} to
near round-off, at the price of plateaus that are only exact to ~1e-28 beyond
a few transition widths.  Every weight profile uses the same transition:
width ``TRANSITION_WIDTH`` centred at s = 0; a glued one shifts its two
components' profiles to either side of the neck.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy.special import erf

TRANSITION_WIDTH = 0.75


def smoothstep(x):
    """Quintic smoothstep: 0 for x <= 0, 1 for x >= 1, C^2 across the joints."""
    y = np.clip(x, 0.0, 1.0)
    return y * y * y * (10.0 + y * (-15.0 + 6.0 * y))


def cutoff(s, n_prime):
    """Cutoff beta(s): identically 0 for s <= n_prime, 1 for s >= n_prime + 1."""
    return smoothstep(np.asarray(s) - n_prime)


def _phi(x):
    return 0.5 * (1.0 + erf(x))


def _int_phi(x):
    # antiderivative of _phi vanishing at -inf
    x = np.asarray(x, dtype=float)
    return x * _phi(x) + np.exp(-(x * x)) / (2.0 * np.sqrt(np.pi))


class WeightProfile:
    """Smooth realization of the per-end weight exponents on a finite domain.

    ``w(s)`` behaves like ``delta_minus * |s|`` near the negative end and
    ``delta_plus * |s|`` near the positive end, so that multiplication by
    e^{w} maps the weighted norm to the flat one.  Consequently
    ``w'(s) -> -delta_minus`` as s -> s_lo and ``w'(s) -> +delta_plus`` as
    s -> s_hi, with an erf transition of scale ``TRANSITION_WIDTH`` at
    s = 0.  When the slopes agree (delta_minus = -delta_plus, as for a
    plane) the transition term is exactly zero: w = delta_plus * s and
    w' = delta_plus bit for bit.
    """

    def __init__(self, delta_minus, delta_plus):
        self.delta_minus = float(delta_minus)
        self.delta_plus = float(delta_plus)

    def wprime(self, s):
        s = np.asarray(s, dtype=float)
        dm, dp = self.delta_minus, self.delta_plus
        return -dm + (dm + dp) * _phi(s / TRANSITION_WIDTH)

    def w(self, s):
        s = np.asarray(s, dtype=float)
        dm, dp = self.delta_minus, self.delta_plus
        out = -dm * s + (dm + dp) * TRANSITION_WIDTH * _int_phi(s / TRANSITION_WIDTH)
        # normalize so w(0) = 0
        return out - (dm + dp) * TRANSITION_WIDTH * _int_phi(0.0)

    def __repr__(self):
        return f"WeightProfile(delta_minus={self.delta_minus}, delta_plus={self.delta_plus})"


def glued_weight_profile(profile_u, profile_w, tau):
    """Weight profile of a glued cylinder, inheriting the component profiles.

    On the u-side (s <= 0 in glued coordinates) the profile continues
    ``w_u(s + tau)``; on the w-side it continues ``w_w(s - tau)``.  This
    piecewise form is exact because ``glue`` refuses a seam whose weight does
    not continue (u's positive-end exponent equal to minus w's negative-end
    one), so both pieces share their slope at s = 0.  Returns an object with
    the profile methods ``w`` and ``wprime``.
    """
    def wprime(s):
        s = np.asarray(s, dtype=float)
        return np.where(s <= 0.0, profile_u.wprime(s + tau), profile_w.wprime(s - tau))

    def w(s):
        s = np.asarray(s, dtype=float)
        return np.where(s <= 0.0, profile_u.w(s + tau) - profile_u.w(tau),
                        profile_w.w(s - tau) - profile_w.w(-tau))

    return SimpleNamespace(w=w, wprime=wprime)
