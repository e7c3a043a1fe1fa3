"""The decoded encoded pair with no swap (N = 0), in the stdlib alone.

N = 0 is the repeaterless link: one segment, no station.  Its key pair
mixes the perfect and the one-faulty decode of the encoded pair itself,
whose Bell coefficients are stored integer rows here.  N = 0 lies outside
the repeater protocol and every command's default nesting range, so the
rate path (``rates._Point.decoded``) imports this module on the first
level it scores at N = 0, and ``import repeater_keyrate.cli`` never
compiles it.  The tests rebuild the rows from the Pauli-frame core
(:mod:`~repeater_keyrate.frames`, README decision 20).
"""

from .closedform import _check_unit, first_order_weights

# The GHZ register behind the encoded pair mixes GHZ3 frames of three weights,
# A = (1-beta)^2 + beta (3 (1-beta) + beta)/8, B = beta (3 - 2 beta)/8 and
# C = beta/8.  Each Bell coefficient of the pair's perfect and one-faulty
# decode, less p/4 for the six teleport gates' identity remainder p, is
# sum_r row[r] c_r over the 24 monomials c_r = (A, B or C) x (all gates
# perfect, or one faulty) x F0^m ((1 - F0)/3)^(3 - m), m = 0...3, in that
# order.  The entries are integers >= 0 (over 32 in the one-faulty rows), so
# the sum never cancels; the tests rebuild them in exact rationals from the
# frame core's tables.

_PAIR_PERFECT = (  # phi+, phi-, and psi+ = psi-
    (3, 9, 3, 1, 27, 45, 21, 3, 15, 21, 11, 1, 99, 129, 53, 7, 22, 30, 10, 2, 144, 168, 64, 8),
    (4, 6, 6, 0, 27, 45, 21, 3, 14, 24, 8, 2, 99, 129, 53, 7, 22, 30, 10, 2, 144, 168, 64, 8),
    (10, 6, 0, 0, 54, 36, 6, 0, 26, 18, 4, 0, 144, 114, 28, 2, 32, 24, 8, 0, 180, 156, 44, 4),
)
_PAIR_ONE_FAULTY = (  # phi+ = phi-, and psi+ = psi-, over 32
    (194, 222, 86, 10, 1215, 1323, 477, 57, 654, 642, 218, 22,
     3861, 3897, 1311, 147, 808, 888, 312, 40, 5004, 5244, 1828, 212),
    (238, 210, 58, 6, 1377, 1269, 387, 39, 642, 654, 214, 26,
     3915, 3879, 1281, 141, 920, 840, 264, 24, 5364, 5124, 1628, 172),
)


def pair_decode_closed_form(beta: float, f0: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Bell coefficients of the perfect and the one-faulty decode of the
    encoded pair itself, with no swap (N = 0), from the stored rows:
    :func:`~repeater_keyrate.frames.pair_decode_coeffs` without the frames,
    exact for ``Fraction`` arguments.
    :meth:`~repeater_keyrate.closedform.ChainState.mix` adds the noise of
    the decode CNOTs."""
    _check_unit("beta", beta)
    _check_unit("F0", f0)
    *gates, p = first_order_weights(6, beta)
    a = 1 - beta
    ghz = (a * a + beta * (3 * a + beta) / 8, beta * (3 - 2 * beta) / 8, beta / 8)
    sources = [f0**m * ((1 - f0) / 3) ** (3 - m) for m in range(4)]
    monomials = [v * g * s for v in ghz for g in gates for s in sources]
    mixed = p / 4
    phi_plus, phi_minus, psi = (
        sum(c * w for c, w in zip(row, monomials)) + mixed for row in _PAIR_PERFECT
    )
    faulty_phi, faulty_psi = (
        sum(c * w for c, w in zip(row, monomials)) / 32 + mixed
        for row in _PAIR_ONE_FAULTY
    )
    return (phi_plus, phi_minus, psi, psi), (faulty_phi, faulty_phi, faulty_psi, faulty_psi)
