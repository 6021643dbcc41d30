/* The lane RK4 kernel behind `integrator._lanes`, the package's one RK4
 * stepper: every lane of an `integrate` run, a dose sweep or a field run,
 * stepped in place on one step grid.
 *
 * A lane is one plant with its own parameters and dose. Every flux is
 * `model._flux_core`'s expression with its operands in the same order;
 * the stage loop follows `integrator._RK4_STAGES`, the RK4 sum runs left
 * to right, and each clamp is an `if` that keeps NaN and -0.0. Each
 * multiply and add is rounded on its own (the build passes
 * -ffp-contract=off and no fast-math flag), so a lane's bits do not
 * depend on the other lanes, and they equal the Python RK4 loop the tests
 * keep as a reference. The outer loop runs over steps, the inner one over
 * lanes, which -O3 vectorizes given the `restrict` pointers.
 */

#include <stdint.h>

/* One lane's constants at one step: its parameters, the temperature
 * terms k * R, theta_c * k * R and theta_n * k * R, the light and the dose. */
struct lane {
    double psi, rpsi, k_l, k_ml, sigma_c, sigma_n, v, j_c, j_n, kR, thc_kR, thn_kR, I, u;
};

/* `model._rates` at the stage state (b, c, n), into d[0..2] */
static inline void rates(const struct lane *p, double b, double c, double n, double d[3])
{
    double shoot = p->psi * b;
    double root = p->rpsi * b;
    double growth = p->kR * (c / b) * (n / b) * b;
    double litter = p->k_l * b / (1.0 + p->k_ml / b);
    double consume_c = p->thc_kR * c;
    double consume_n = p->thn_kR * n;
    double assim_c = p->sigma_c * shoot * p->I / ((1.0 + shoot / p->v) * (1.0 + c / (shoot * p->j_c)));
    double assim_n = p->sigma_n * root * p->u / ((1.0 + root / p->v) * (1.0 + n / (root * p->j_n)));
    d[0] = growth - litter;
    d[1] = assim_c - consume_c;
    d[2] = assim_n - consume_n;
}

/* `integrator._RK4_STAGES`: the stages after k1, as (fraction of dt, weight) */
static const double STAGE_FRAC[3] = {0.5, 0.5, 1.0}, STAGE_WEIGHT[3] = {2.0, 2.0, 1.0};

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
    const double sixth = dt / 6.0;
    const double floor[3] = {b_eps, 0.0, 0.0};

    for (int64_t i = start; i < stop; i++) {
        const double *kR = terms + temp[i] * 3 * lanes;
        for (int64_t j = 0; j < lanes; j++) {
            const struct lane p = {
                con[j], con[lanes + j], con[2 * lanes + j], con[3 * lanes + j], con[4 * lanes + j],
                con[5 * lanes + j], con[6 * lanes + j], con[7 * lanes + j], con[8 * lanes + j],
                kR[j], kR[lanes + j], kR[2 * lanes + j], light[i], u[j],
            };
            const double s[3] = {x[j], x[lanes + j], x[2 * lanes + j]};
            double k[3], sum[3], y[3];
            rates(&p, s[0], s[1], s[2], k);
            for (int r = 0; r < 3; r++)
                sum[r] = k[r];
            for (int stage = 0; stage < 3; stage++) {
                const double h = STAGE_FRAC[stage] * dt;
                for (int r = 0; r < 3; r++) {
                    y[r] = s[r] + h * k[r];
                    if (y[r] < floor[r]) y[r] = floor[r];
                }
                rates(&p, y[0], y[1], y[2], k);
                for (int r = 0; r < 3; r++)
                    sum[r] = sum[r] + STAGE_WEIGHT[stage] * k[r]; /* k1 + 2 k2 + 2 k3 + k4, left to right */
            }
            for (int r = 0; r < 3; r++) {
                y[r] = s[r] + sixth * sum[r];
                if (y[r] < floor[r]) y[r] = floor[r];
                x[r * lanes + j] = y[r];
            }
        }
        if (hist) {
            double *row = hist + (i + 1) * 3;
            for (int64_t j = 0; j < lanes; j++, row += hist_stride)
                for (int r = 0; r < 3; r++)
                    row[r] = x[r * lanes + j];
        }
    }
}
