"""A reference state Jacobian derived apart from `model._stage`.

The entries are written from the cleared forms of the two assimilation
fluxes, so a test that compares them with `_stage` (and so with
`jacobian_state`) compares two independent derivations.
"""

import numpy as np

from lettucesim.model import temperature_response


def cleared_jacobian_state(s, u, env, p):
    """Analytic 3x3 Jacobian of rhs with respect to (b, c, n), from the cleared forms."""
    b, c, n = s.b, s.c, s.n
    R = temperature_response(env.T, p.T_op)
    kR = p.k * R
    gamma = 1.0 - p.psi

    # Row b: growth minus litter.
    dG_db = -kR * c * n / (b * b)
    dL_db = p.k_l * b * (b + 2.0 * p.k_ml) / (b + p.k_ml) ** 2
    dG_dc = kR * n / b
    dG_dn = kR * c / b

    # Row c: photosynthesis minus carbon consumption. Written from the
    # cleared form A_c = sigma_c*I*v*j_c*psi^2*b^2 / ((v+psi*b)(c+j_c*psi*b)).
    v_ = p.v
    shoot = p.psi * b
    den_c = v_ + shoot
    inh_c = c + p.j_c * shoot
    dAc_db = (
        p.sigma_c * env.I * v_ * p.j_c * p.psi**2 * b
        * (2.0 * c * v_ + b * c * p.psi + b * v_ * p.j_c * p.psi)
        / (inh_c**2 * den_c**2)
    )
    dAc_dc = -p.sigma_c * env.I * v_ * p.j_c * p.psi**2 * b * b / (den_c * inh_c**2)

    # Row n: uptake minus nitrogen consumption, same structure with the
    # root fraction gamma and the input u in place of psi and I.
    root = gamma * b
    den_n = v_ + root
    inh_n = n + p.j_n * root
    dAn_db = (
        p.sigma_n * u * v_ * p.j_n * gamma**2 * b
        * (2.0 * n * v_ + b * n * gamma + b * v_ * p.j_n * gamma)
        / (inh_n**2 * den_n**2)
    )
    dAn_dn = -p.sigma_n * u * v_ * p.j_n * gamma**2 * b * b / (den_n * inh_n**2)

    return np.array(
        [
            [dG_db - dL_db, dG_dc, dG_dn],
            [dAc_db, dAc_dc - p.theta_c * kR, 0.0],
            [dAn_db, 0.0, dAn_dn - p.theta_n * kR],
        ]
    )
