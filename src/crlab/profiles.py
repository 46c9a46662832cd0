"""Cutoff and weight profiles along the cylinder coordinate.

Two families live here.  Cutoffs (``smoothstep``-based) have *exact* plateaus:
they vanish identically on one side of their transition interval and equal one
on the other, which several structural invariants rely on.  Weight profiles
are built from the error function instead; they are entire, so the high-order
finite-difference stencils differentiate the conjugation factor e^{w(s)} to
near round-off, at the price of plateaus that are only exact to ~1e-28 beyond
a few transition widths.  Every weight profile, and the bridge of a glued
one, uses the same transition: width ``TRANSITION_WIDTH`` centred at s = 0.
"""

from __future__ import annotations

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
    s = 0.  When the slopes agree (delta_minus = -delta_plus) the transition
    term vanishes and w is exactly linear.

    For a single-ended domain (``delta_minus is None``) the profile is the
    exact linear w(s) = delta_plus * s.
    """

    def __init__(self, delta_minus, delta_plus):
        self.delta_minus = delta_minus
        self.delta_plus = float(delta_plus)

    def wprime(self, s):
        s = np.asarray(s, dtype=float)
        if self.delta_minus is None:
            return np.broadcast_to(self.delta_plus, s.shape).copy() if s.shape else np.float64(self.delta_plus)
        dm, dp = self.delta_minus, self.delta_plus
        return -dm + (dm + dp) * _phi(s / TRANSITION_WIDTH)

    def w(self, s):
        s = np.asarray(s, dtype=float)
        if self.delta_minus is None:
            return self.delta_plus * s
        dm, dp = self.delta_minus, self.delta_plus
        out = -dm * s + (dm + dp) * TRANSITION_WIDTH * _int_phi(s / TRANSITION_WIDTH)
        # normalize so w(0) = 0
        return out - (dm + dp) * TRANSITION_WIDTH * _int_phi(0.0)

    def __repr__(self):
        return f"WeightProfile(delta_minus={self.delta_minus}, delta_plus={self.delta_plus})"


def glued_weight_profile(profile_u, profile_w, tau):
    """Weight profile of a glued cylinder, inheriting the component profiles.

    On the u-side (s <= 0 in glued coordinates) the profile continues
    ``w_u(s + tau)``; on the w-side it continues ``w_w(s - tau)``.  When the
    shared-end slopes disagree (a decay weight used on both components meets
    the seam as +delta vs -delta) the slope transitions smoothly across the
    neck middle; eigenvalues of the shifted asymptotic operator never cross
    zero during the transition because |delta| stays below the spectral gap.
    """
    wu, wpu = profile_u.w, profile_u.wprime
    ww, wpw = profile_w.w, profile_w.wprime
    slope_u = float(profile_u.delta_plus)     # w_u' at its positive end
    slope_w = -float(profile_w.delta_minus)   # w_w' at its negative end

    if abs(slope_u - slope_w) < 1e-14:
        def wprime(s):
            s = np.asarray(s, dtype=float)
            return np.where(s <= 0.0, wpu(s + tau), wpw(s - tau))

        def w(s):
            s = np.asarray(s, dtype=float)
            return np.where(s <= 0.0, wu(s + tau) - wu(tau), ww(s - tau) - ww(-tau))

        return w, wprime

    # bridge the slopes over the neck middle; the component profiles are flat
    # (erf tails < 1e-17) beyond |s| = a for tau > n_prime + 2
    a = 0.45 * tau

    sigma = TRANSITION_WIDTH

    def bridge(s):
        return slope_u + (slope_w - slope_u) * _phi(s / sigma)

    def bridge_int(s):
        # antiderivative of bridge with value 0 at s = 0
        return slope_u * s + (slope_w - slope_u) * sigma * (_int_phi(s / sigma) - _int_phi(0.0))

    c_left = bridge_int(-a) - (wu(-a + tau) - wu(tau))
    c_right = bridge_int(a) - (ww(a - tau) - ww(-tau))

    def wprime(s):
        s = np.asarray(s, dtype=float)
        base = np.where(s <= 0.0, wpu(s + tau), wpw(s - tau))
        return np.where(np.abs(s) < a, bridge(s), base)

    def w(s):
        s = np.asarray(s, dtype=float)
        left = wu(s + tau) - wu(tau) + c_left
        right = ww(s - tau) - ww(-tau) + c_right
        base = np.where(s <= 0.0, left, right)
        return np.where(np.abs(s) < a, bridge_int(s), base)

    return w, wprime
