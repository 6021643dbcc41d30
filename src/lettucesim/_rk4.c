/* The package's compiled RK4 kernel: one RK4 step body, `step`, behind two entry points.
 *
 * `rk4_lanes`, behind `integrator._lanes`, is the package's one RK4
 * stepper: every lane of an `integrate` run, a dose sweep or a field run,
 * stepped in place on one step grid. `rk4_sensitivities`, behind
 * `fitting._outputs_and_sensitivities`, steps one lane with the same
 * `step` and carries its forward sensitivities beside it, for the fit's
 * outputs and gradient.
 *
 * A lane is one plant with its own parameters and dose. Every flux is
 * `model._flux_core`'s expression with its operands in the same order,
 * written once, in `tangent`; the stage loop in `step` follows
 * `integrator._RK4_STAGES`, the RK4 sum runs left to right, and each
 * clamp is an `if` that keeps NaN and -0.0. Each multiply and add is
 * rounded on its own (the build passes -ffp-contract=off and no fast-math
 * flag), so a lane's bits do not depend on the other lanes, and they equal
 * the Python RK4 loop the tests keep as a reference. In `rk4_lanes` the
 * outer loop runs over steps, the inner one over lanes; there `step`
 * carries no sensitivities, so once inlined its Jacobian code is dropped,
 * and -O3 vectorizes the lane loop given the `restrict` pointers.
 */

#include <stdint.h>
#include <string.h>

/* One lane's constants at one step: its parameters, the temperature terms
 * k * R, theta_c * k * R and theta_n * k * R, the light and the dose, and,
 * read only for sensitivities, theta_c, theta_n and `fitting._T_op_scale`. */
struct lane {
    double psi, rpsi, k_l, k_ml, sigma_c, sigma_n, v, j_c, j_n, kR, thc_kR, thn_kR, I, u, theta_c, theta_n, t_op;
};

/* The parameters in `model.PARAM_NAMES` order, the columns `tangent` builds */
enum { K, K_L, K_ML, SIGMA_C, SIGMA_N, V, J_C, J_N, PSI, T_OP, THETA_C, THETA_N, PARAMS };

/* `integrator._RK4_STAGES`: the stages after k1, as (fraction of dt, weight) */
static const double STAGE_FRAC[3] = {0.5, 0.5, 1.0}, STAGE_WEIGHT[3] = {2.0, 2.0, 1.0};

/* `model._stage` at the stage state (b, c, n): its rates (`model._rates` of
 * `model._flux_core`'s fluxes) into k, and, for m > 0 sensitivities `in`
 * (3 x m, row-major), into `out` (3 x m) the tangent J in + P, with J the
 * state Jacobian and P the columns of theta * d(rate)/d(theta) of the
 * parameters `cols`. The T_op column is the k column times `t_op`. */
static inline void tangent(const struct lane *p, double b, double c, double n, int64_t m,
                           const int64_t *restrict cols, const double *restrict in, double k[3],
                           double *restrict out)
{
    const double shoot = p->psi * b, root = p->rpsi * b;
    const double growth = p->kR * (c / b) * (n / b) * b;
    const double litter = p->k_l * b / (1.0 + p->k_ml / b);
    const double consume_c = p->thc_kR * c, consume_n = p->thn_kR * n;
    const double assim_c = p->sigma_c * shoot * p->I / ((1.0 + shoot / p->v) * (1.0 + c / (shoot * p->j_c)));
    const double assim_n = p->sigma_n * root * p->u / ((1.0 + root / p->v) * (1.0 + n / (root * p->j_n)));
    k[0] = growth - litter;
    k[1] = assim_c - consume_c;
    k[2] = assim_n - consume_n;
    if (m == 0)
        return;
    const double kR = p->kR, t_op = p->t_op;
    const double inh_c = c + p->j_c * shoot, inh_n = n + p->j_n * root;
    /* shoot * d(log assim_c)/d(shoot), and the same for uptake and the root */
    const double e_c = p->v / (p->v + shoot) + c / inh_c, e_n = p->v / (p->v + root) + n / inh_n;
    const double b_kml = b + p->k_ml;
    const double bb = -kR * c * n / (b * b) - p->k_l * b * (b + 2.0 * p->k_ml) / (b_kml * b_kml);
    const double bc = kR * n / b, bn = kR * c / b;
    const double cb = assim_c * e_c / b, cc = -assim_c / inh_c - p->theta_c * kR;
    const double nb = assim_n * e_n / b, nn = -assim_n / inh_n - p->theta_n * kR;
    const double col[PARAMS][3] = {
        [K] = {growth, -consume_c, -consume_n},
        [K_L] = {-litter, 0.0, 0.0},
        [K_ML] = {litter * p->k_ml / b_kml, 0.0, 0.0},
        [SIGMA_C] = {0.0, assim_c, 0.0},
        [SIGMA_N] = {0.0, 0.0, assim_n},
        [V] = {0.0, assim_c * shoot / (p->v + shoot), assim_n * root / (p->v + root)},
        [J_C] = {0.0, assim_c * c / inh_c, 0.0},
        [J_N] = {0.0, 0.0, assim_n * n / inh_n},
        [PSI] = {0.0, assim_c * e_c, -p->psi / p->rpsi * assim_n * e_n},
        [T_OP] = {growth * t_op, -consume_c * t_op, -consume_n * t_op},
        [THETA_C] = {0.0, -consume_c, 0.0},
        [THETA_N] = {0.0, 0.0, -consume_n},
    };
    const double *sb = in, *sc = in + m, *sn = in + 2 * m;
    for (int64_t j = 0; j < m; j++) {
        const double *pc = col[cols[j]];
        out[j] = bb * sb[j] + bc * sc[j] + bn * sn[j] + pc[0];
        out[m + j] = cb * sb[j] + cc * sc[j] + pc[1];
        out[2 * m + j] = nb * sb[j] + nn * sn[j] + pc[2];
    }
}

/* One RK4 step of one lane in place: its state x = (b, c, n) and its
 * m <= PARAMS sensitivity columns s = theta * dx/dtheta (3 x m, row-major)
 * of the parameters `cols`. Each stage's tangent is `tangent` at that
 * stage's state. A clamp to the floors (b_eps, 0, 0) zeroes the rows of
 * s it acts on: a row is kept where the unclamped value is >= its floor,
 * so a NaN zeroes it. */
static inline void step(const struct lane *p, double dt, double b_eps, double x[3], int64_t m,
                        const int64_t *restrict cols, double *restrict s)
{
    const double floor[3] = {b_eps, 0.0, 0.0}, sixth = dt / 6.0;
    double k[3], total[3], y[3], kk[3 * PARAMS], sum[3 * PARAMS], ys[3 * PARAMS];
    tangent(p, x[0], x[1], x[2], m, cols, s, k, kk);
    for (int r = 0; r < 3; r++)
        total[r] = k[r];
    for (int64_t j = 0; j < 3 * m; j++)
        sum[j] = kk[j];
    for (int stage = 0; stage < 3; stage++) {
        const double h = STAGE_FRAC[stage] * dt;
        for (int r = 0; r < 3; r++) {
            y[r] = x[r] + h * k[r];
            const int keep = y[r] >= floor[r];
            if (y[r] < floor[r]) y[r] = floor[r];
            for (int64_t j = r * m; j < (r + 1) * m; j++)
                ys[j] = keep ? s[j] + h * kk[j] : 0.0;
        }
        tangent(p, y[0], y[1], y[2], m, cols, ys, k, kk);
        for (int r = 0; r < 3; r++)
            total[r] = total[r] + STAGE_WEIGHT[stage] * k[r]; /* k1 + 2 k2 + 2 k3 + k4, left to right */
        for (int64_t j = 0; j < 3 * m; j++)
            sum[j] = sum[j] + STAGE_WEIGHT[stage] * kk[j];
    }
    for (int r = 0; r < 3; r++) {
        y[r] = x[r] + sixth * total[r];
        const int keep = y[r] >= floor[r];
        if (y[r] < floor[r]) y[r] = floor[r];
        x[r] = y[r];
        for (int64_t j = r * m; j < (r + 1) * m; j++)
            s[j] = keep ? s[j] + sixth * sum[j] : 0.0;
    }
}

/* RK4-step every lane from step `start` to `stop`.
 *
 * con: (9, lanes), rows psi, 1 - psi, k_l, k_ml, sigma_c, sigma_n, v, j_c, j_n
 * terms: (temperatures, 3, lanes), rows k * R, theta_c * k * R, theta_n * k * R
 * temp, light: each step's row of `terms` and its light
 * u: each lane's dose
 * x: (3, lanes), rows b, c, n, updated in place
 * hist: NULL, or a (lanes, steps + 1, 3) history with a lane stride of
 *   `hist_stride` doubles; step i's state goes to hist[:, i]
 */
void rk4_lanes(int64_t lanes, int64_t start, int64_t stop, double dt, double b_eps,
               const double *restrict con, const double *restrict terms, const int64_t *restrict temp,
               const double *restrict light, const double *restrict u, double *restrict x,
               double *restrict hist, int64_t hist_stride)
{
    for (int64_t i = start; i < stop; i++) {
        const double *kR = terms + temp[i] * 3 * lanes;
        for (int64_t j = 0; j < lanes; j++) {
            const struct lane p = {
                con[j], con[lanes + j], con[2 * lanes + j], con[3 * lanes + j], con[4 * lanes + j],
                con[5 * lanes + j], con[6 * lanes + j], con[7 * lanes + j], con[8 * lanes + j],
                kR[j], kR[lanes + j], kR[2 * lanes + j], light[i], u[j], 0.0, 0.0, 0.0,
            };
            double s[3] = {x[j], x[lanes + j], x[2 * lanes + j]};
            step(&p, dt, b_eps, s, 0, NULL, NULL);
            for (int r = 0; r < 3; r++)
                x[r * lanes + j] = s[r];
        }
        if (hist) {
            double *row = hist + (i + 1) * 3;
            for (int64_t j = 0; j < lanes; j++, row += hist_stride)
                for (int r = 0; r < 3; r++)
                    row[r] = x[r * lanes + j];
        }
    }
}

/* RK4-step one lane from step 0 to step at[count - 1] with `step`, as
 * `rk4_lanes` does, and carry its forward sensitivities s = theta * dx/dtheta
 * (3 x m, zero at step 0) through the same stages.
 *
 * m, cols: m <= PARAMS distinct free parameters, as indices in
 *   `model.PARAM_NAMES` order
 * count, at: ascending step indices; step at[i]'s state goes to xs[i]
 *   (3,) and its sensitivities to ss[i] (3 x m, row-major)
 * con: 11 values, psi, 1 - psi, k_l, k_ml, sigma_c, sigma_n, v, j_c, j_n,
 *   theta_c, theta_n
 * terms: (temperatures, 4), rows k * R, theta_c * k * R, theta_n * k * R
 *   and `fitting._T_op_scale`
 * temp, light: each step's row of `terms` and its light
 * u: the dose
 * x: (3,), b, c, n, updated in place
 */
void rk4_sensitivities(int64_t m, const int64_t *restrict cols, int64_t count, const int64_t *restrict at,
                       double dt, double b_eps, const double *restrict con, const double *restrict terms,
                       const int64_t *restrict temp, const double *restrict light, double u,
                       double *restrict x, double *restrict xs, double *restrict ss)
{
    double s[3 * PARAMS] = {0};
    for (int64_t i = 0, next = 0; next < count; i++) {
        for (; next < count && at[next] == i; next++) {
            memcpy(xs + 3 * next, x, 3 * sizeof *x);
            memcpy(ss + 3 * m * next, s, 3 * m * sizeof *s);
        }
        if (next == count)
            break;
        const double *kR = terms + temp[i] * 4;
        const struct lane p = {
            con[0], con[1], con[2], con[3], con[4], con[5], con[6], con[7], con[8],
            kR[0], kR[1], kR[2], light[i], u, con[9], con[10], kR[3],
        };
        step(&p, dt, b_eps, x, m, cols, s);
    }
}
