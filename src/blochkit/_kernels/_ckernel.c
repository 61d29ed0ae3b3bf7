/* Compiled kernel backend, as a plain CPython module with three entries:
 * seminorm_search, the whole multistart search from the boundary scan to
 * the best start for each product of a batch, all starts of a product
 * climbing in lockstep by safeguarded Newton ascents on log f;
 * track_routes, fiber tracking one route at a time, each from its own start
 * fiber; and critical_roots, mirrored Ehrlich-Aberth on the numerator of
 * B'/B, one root at a time in scratch linear in the degree.
 *
 * blochkit._kernels makes the inputs contiguous and allocates the outputs;
 * this module reads and writes them through the buffer protocol, so it needs
 * no numpy headers.  Every loop runs with the interpreter lock released, and
 * the module keeps no global state, so concurrent calls are safe.  B and its
 * derivatives come from one per-factor formula, factor_step(), which takes
 * 1/num and 1/den as reciprocals: blaschke() steps one point through it, B
 * and B' for the tracker, and blaschke_lanes() four at once, up to B''' for
 * the ascent.
 * The objective with its gradient and Hessian, the ascent's step, line
 * search and stop rules, the per-route tracking rules (each point's move
 * bounded by its own nearest-neighbour distance, and a second-order
 * predictor) and the Aberth rules are those of the numpy reference,
 * blochkit._kernels._fallback.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define ZERO_SWITCH2 (1e-8 * 1e-8) /* squared distance below which the product rule takes over */
#ifndef M_PI
#define M_PI 3.14159265358979323846
#endif

typedef struct { double re, im; } cplx;

static inline cplx mk(double re, double im) { cplx r = {re, im}; return r; }
static inline cplx add(cplx a, cplx b) { return mk(a.re + b.re, a.im + b.im); }
static inline cplx sub(cplx a, cplx b) { return mk(a.re - b.re, a.im - b.im); }
static inline cplx scale(double s, cplx a) { return mk(s * a.re, s * a.im); }
static inline cplx conjugate(cplx a) { return mk(a.re, -a.im); }
static inline cplx mul(cplx a, cplx b)
{
    return mk(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re);
}

/* Smith's division, the algorithm numpy uses for complex arrays */
static inline cplx quot(cplx a, cplx b)
{
    double br = fabs(b.re), bi = fabs(b.im), rat, scl;
    if (br >= bi) {
        if (br == 0.0)
            return mk(a.re / br, a.im / br);
        rat = b.im / b.re;
        scl = 1.0 / (b.re + b.im * rat);
        return mk((a.re + a.im * rat) * scl, (a.im - a.re * rat) * scl);
    }
    rat = b.re / b.im;
    scl = 1.0 / (b.im + b.re * rat);
    return mk((a.re * rat + a.im) * scl, (a.im * rat - a.re) * scl);
}

/* 1 - conj(a) z, the denominator of one Blaschke factor */
static inline cplx factor_den(cplx a, cplx z)
{
    return sub(mk(1.0, 0.0), mul(mk(a.re, -a.im), z));
}

static inline double norm2(cplx a) { return a.re * a.re + a.im * a.im; }

/* 1/a as conj(a)/|a|^2: one real division and no branch, so a loop of them
 * vectorizes */
static inline cplx recip(cplx a) { return scale(1.0 / norm2(a), conjugate(a)); }

/* P = f_0 ... f_{n-1} at z and its derivatives up to order (1 or 3) into
 * d[1..order], by the Leibniz rule: one pass carries the partial product p
 * and its derivatives, dp <- dp f_j + p f_j' and its analogues
 *   d2p <- d2p f_j + 2 dp f_j' + p f_j'',
 *   d3p <- d3p f_j + 3 d2p f_j' + 3 dp f_j'' + p f_j''',
 * so no factor is divided out: stable at a zero of P, repeated or not, where
 * the log-derivative sums collapse.  O(n). */
static void product_rule(Py_ssize_t n, const cplx *zr, cplx z, int order, cplx *d)
{
    cplx p = mk(1.0, 0.0), d1 = mk(0.0, 0.0), d2 = d1, d3 = d1;
    Py_ssize_t j;

    for (j = 0; j < n; j++) {
        cplx rden = recip(factor_den(zr[j], z));
        cplx f = mul(sub(z, zr[j]), rden);
        cplx f1 = scale(1.0 - norm2(zr[j]), mul(rden, rden));
        if (order == 3) {
            cplx q = mul(conjugate(zr[j]), rden); /* f'' = 2 q f', f''' = 3 q f'' */
            cplx f2 = scale(2.0, mul(q, f1)), f3 = scale(3.0, mul(q, f2));
            d3 = add(add(add(mul(d3, f), scale(3.0, mul(d2, f1))), scale(3.0, mul(d1, f2))),
                     mul(p, f3));
            d2 = add(add(mul(d2, f), scale(2.0, mul(d1, f1))), mul(p, f2));
        }
        d1 = add(mul(d1, f), mul(p, f1));
        p = mul(p, f);
    }
    d[1] = d1;
    if (order == 3) {
        d[2] = d2;
        d[3] = d3;
    }
}

/* the sums that the factor loop carries for one point, each `stride` doubles
 * after the one before: P, S1, S2 and S3 (real, then imaginary part) and the
 * least squared distance to a zero */
enum { P_RE, S1_RE = 2, S2_RE = 4, S3_RE = 6, MIN_D2 = 8, SUMS };

static inline cplx sum_at(const double *s, int k, Py_ssize_t stride)
{
    return mk(s[k * stride], s[(k + 1) * stride]);
}

static inline void set_sum(double *s, int k, Py_ssize_t stride, cplx v)
{
    s[k * stride] = v.re;
    s[(k + 1) * stride] = v.im;
}

static inline void start_sums(double *s, Py_ssize_t stride)
{
    int k;
    for (k = 0; k < SUMS; k++)
        s[k * stride] = 0.0;
    s[P_RE * stride] = 1.0;
    s[MIN_D2 * stride] = HUGE_VAL;
}

/* One factor f_j = num/den of P at z into the sums s: P <- P f_j and, with
 * l_j = f_j'/f_j = (1 - |a|^2)/(num den) and the Leibniz rule divided by the
 * partial product,
 *   S2 <- S2 + 2 S1 l_j + f_j''/f_j,
 *   S3 <- S3 + 3 S2 l_j + 3 S1 f_j''/f_j + f_j'''/f_j,   then S1 <- S1 + l_j
 * (S2 and S3 for order 3 only), whose terms hold each l_j at most once, so
 * nothing cancels next to a zero.  1/num and 1/den are reciprocals, two real
 * divisions and no branch, so the lane loop of blaschke_lanes() vectorizes;
 * the one per-factor formula of both evaluators. */
static inline void factor_step(cplx a, cplx z, int order, double *s, Py_ssize_t stride)
{
    cplx num = sub(z, a), rnum = recip(num), rden = recip(factor_den(a, z));
    cplx ell = scale(1.0 - norm2(a), mul(rnum, rden)), s1 = sum_at(s, S1_RE, stride);
    double d2 = norm2(num), least = s[MIN_D2 * stride];

    set_sum(s, P_RE, stride, mul(sum_at(s, P_RE, stride), mul(num, rden)));
    if (order == 3) {
        cplx s2 = sum_at(s, S2_RE, stride), s3 = sum_at(s, S3_RE, stride);
        cplx q = mul(conjugate(a), rden); /* f''/f = 2 q l, f'''/f = 3 q f''/f */
        cplx rho = scale(2.0, mul(q, ell));
        s3 = add(s3, add(add(scale(3.0, mul(q, rho)), scale(3.0, mul(s2, ell))),
                         scale(3.0, mul(s1, rho))));
        set_sum(s, S3_RE, stride, s3);
        set_sum(s, S2_RE, stride, add(s2, add(rho, scale(2.0, mul(s1, ell)))));
    }
    set_sum(s, S1_RE, stride, add(s1, ell));
    s[MIN_D2 * stride] = d2 < least ? d2 : least;
}

/* P, P' and, for order 3, P'' and P''' from the sums s into d[0..order]: P
 * times S1, S2 and S3; within ZERO_SWITCH of a zero, where P is 0 times a
 * pole, the product rule takes over. */
static inline void finish_sums(Py_ssize_t n, const cplx *zr, cplx z, int order, const double *s,
                               Py_ssize_t stride, cplx *d)
{
    d[0] = sum_at(s, P_RE, stride);
    if (s[MIN_D2 * stride] <= ZERO_SWITCH2) {
        product_rule(n, zr, z, order, d);
        return;
    }
    d[1] = mul(d[0], sum_at(s, S1_RE, stride));
    if (order == 3) {
        d[2] = mul(d[0], sum_at(s, S2_RE, stride));
        d[3] = mul(d[0], sum_at(s, S3_RE, stride));
    }
}

/* The product of the factors at z, P = B/lam, and its derivatives P' = B'/lam
 * and, for order 3, P'' and P''', into d[0..order]; order is 1 or 3.  The
 * evaluator of the tracker, one point at a time. */
static inline void blaschke(Py_ssize_t n, const cplx *zr, cplx z, int order, cplx *d)
{
    double s[SUMS];
    Py_ssize_t j;

    start_sums(s, 1);
    for (j = 0; j < n; j++)
        factor_step(zr[j], z, order, s, 1);
    finish_sums(n, zr, z, order, s, 1, d);
}

#define LANES 4 /* the points that blaschke_lanes() evaluates together */

/* blaschke() at order 3 for the m <= LANES points z into d[0..m), bit for
 * bit: the factor loop steps the sums of all LANES points at once, in fixed
 * local arrays, one lane per point and the lanes past m repeating z[0]. */
static void blaschke_lanes(Py_ssize_t n, const cplx *zr, int m, const cplx *z, cplx (*d)[4])
{
    double s[SUMS * LANES], xr[LANES], xi[LANES];
    Py_ssize_t j;
    int l;

    for (l = 0; l < LANES; l++) {
        xr[l] = z[l < m ? l : 0].re;
        xi[l] = z[l < m ? l : 0].im;
        start_sums(s + l, LANES);
    }
    for (j = 0; j < n; j++)
        for (l = 0; l < LANES; l++)
            factor_step(zr[j], mk(xr[l], xi[l]), 3, s + l, LANES);
    for (l = 0; l < m; l++)
        finish_sums(n, zr, z[l], 3, s + l, LANES, d[l]);
}

/* the fraction of the first-order gain that a step of the line search must
 * achieve: the numpy reference's _ARMIJO */
#define ARMIJO 1e-4

/* f, and the gradient and Hessian of log f, at one point */
typedef struct {
    double f, gx, gy, hxx, hxy, hyy;
} ascent_point;

/* The numpy reference's _objective at the m <= LANES points z: f = |1 +
 * slope B(z)| |B'(z)| (1 - |z|^2), the objective for f(w) = w + slope w^2/2;
 * and the gradient and Hessian of log f = Re H + log(1 - |z|^2), H = log B' +
 * log(1 + slope B), from H' and H''.  For slope 0 the first factor is exactly
 * 1 and the slope's terms in H' and H'' are exactly 0.  f is 0 on the circle
 * and negative or NaN beyond it, where the ascent's line search rejects every
 * step.  The gradient and Hessian are not finite where f is 0. */
static void ascent_terms(Py_ssize_t n, const cplx *zr, cplx lam, double slope, int m,
                         const cplx *z, ascent_point *out)
{
    cplx b[LANES][4];
    int l;

    blaschke_lanes(n, zr, m, z, b);
    for (l = 0; l < m; l++) {
        double d = 1.0 - norm2(z[l]);
        cplx u = add(mk(1.0, 0.0), scale(slope, mul(lam, b[l][0])));
        cplx h1 = quot(b[l][2], b[l][1]), h2 = sub(quot(b[l][3], b[l][1]), mul(h1, h1));
        cplx v1 = quot(scale(slope, mul(lam, b[l][1])), u);
        ascent_point *p = &out[l];
        p->f = hypot(u.re, u.im) * hypot(b[l][1].re, b[l][1].im) * d;
        h1 = add(h1, v1);
        h2 = add(h2, sub(quot(scale(slope, mul(lam, b[l][2])), u), mul(v1, v1)));
        p->gx = h1.re - 2.0 * z[l].re / d;
        p->gy = -h1.im - 2.0 * z[l].im / d;
        p->hxx = h2.re - 2.0 / d - 4.0 * z[l].re * z[l].re / (d * d);
        p->hxy = -h2.im - 4.0 * z[l].re * z[l].im / (d * d);
        p->hyy = -h2.re - 2.0 / d - 4.0 * z[l].im * z[l].im / (d * d);
    }
}

/* The numpy reference's _ascent_step at p: the step (dx, dy) of one
 * safeguarded Newton iteration on log f, the Newton step where the Hessian
 * is negative definite and otherwise the one shifted by its larger eigenvalue
 * plus |grad|/cap, cut back to length cap and 0 if not finite.  Sets
 * *rise to the first-order gain grad . d and returns the gain that the
 * quadratic model predicts for the whole step. */
static double ascent_step(const ascent_point *p, double cap, double *dx, double *dy,
                          double *rise)
{
    double a = p->hxx, b = p->hxy, c = p->hyy;
    double top = 0.5 * (a + c) + hypot(0.5 * (a - c), b);
    double mu = top < 0.0 ? 0.0 : top + hypot(p->gx, p->gy) / cap;
    double sa = a - mu, sc = c - mu, det = sa * sc - b * b, length;

    *dx = (b * p->gy - sc * p->gx) / det;
    *dy = (b * p->gx - sa * p->gy) / det;
    length = hypot(*dx, *dy);
    if (length > cap) {
        *dx *= cap / length;
        *dy *= cap / length;
    }
    if (!(isfinite(*dx) && isfinite(*dy)))
        *dx = *dy = 0.0;
    *rise = p->gx * *dx + p->gy * *dy;
    return *rise + 0.5 * (a * *dx * *dx + 2.0 * b * *dx * *dy + c * *dy * *dy);
}

/* where a start of the lockstep ascent stands: its point is still to be
 * evaluated, it takes a new step, it tries z + t (dx, dy), its point waits
 * in a batch of lanes, or it has stopped */
enum { START, STEP, TRIAL, QUEUED, DONE };

/* one start of the lockstep ascent: z, and f and the terms of log f there;
 * its step, first-order gain and line-search fraction; its step cap and
 * iterations */
typedef struct {
    ascent_point p;
    cplx z;
    double dx, dy, rise, t, cap;
    long it;
    int state, last;
} climber;

/* The points pts of the m <= LANES queued climbers c[idx[..]], evaluated
 * together, and each climber's rule: a start, which has no iteration yet,
 * takes its f; a trial is taken if f rises by ARMIJO times its first-order
 * gain (by nothing on a last step), and otherwise the step halves. */
static void settle(Py_ssize_t n, const cplx *zr, cplx lam, double slope, double ftol,
                   climber *c, const Py_ssize_t *idx, const cplx *pts, int m)
{
    ascent_point q[LANES];
    int l;

    ascent_terms(n, zr, lam, slope, m, pts, q);
    for (l = 0; l < m; l++) {
        climber *a = &c[idx[l]];
        if (a->it == 0) {
            a->p = q[l];
            a->state = q[l].f > 0.0 ? STEP : DONE;
        } else if (q[l].f - a->p.f >= (a->last ? 0.0 : ARMIJO * a->t * a->rise) * a->p.f) {
            a->z = pts[l];
            a->p = q[l];
            a->state = a->last ? DONE : STEP;
        } else {
            a->t *= 0.5;
            a->state = a->last || !(a->t * a->rise > ftol) ? DONE : TRIAL;
        }
    }
}

/* The numpy reference's _refine_starts over the k climbers c, each set to
 * START at its start z with its step cap and no iteration: one safeguarded
 * Newton ascent on log f per start, all in lockstep.  Each iteration halves
 * its step until f rises by ARMIJO times the first-order gain, and a start
 * stops after a step predicted to gain at most ftol (taken only if f does
 * not fall), when a step rounds to nothing, when halving brings the
 * first-order gain to ftol, or after max_iter iterations.  A start where f
 * is not positive stays.  Each pass over the starts queues every point that
 * a start needs next and evaluates the queue LANES points at a time; a
 * batch that is not full waits for the next pass, and goes as it is once a
 * pass queues nothing.  So every start visits the points it visits alone.
 * Returns the iterations of all starts. */
static long climb(Py_ssize_t n, const cplx *zr, cplx lam, double slope, long max_iter,
                  double ftol, climber *c, Py_ssize_t k)
{
    Py_ssize_t idx[LANES], i;
    cplx pts[LANES];
    long iterations = 0;
    int m = 0, queued;

    for (;;) {
        queued = 0;
        for (i = 0; i < k; i++) {
            climber *a = &c[i];
            if (a->state == STEP) {
                if (a->it >= max_iter) {
                    a->state = DONE;
                    continue;
                }
                a->it++;
                a->last = !(ascent_step(&a->p, a->cap, &a->dx, &a->dy, &a->rise) > ftol);
                a->t = 1.0;
                a->state = TRIAL;
            }
            if (a->state == QUEUED || a->state == DONE)
                continue;
            pts[m] = a->z;
            if (a->state == TRIAL) {
                pts[m] = mk(a->z.re + a->t * a->dx, a->z.im + a->t * a->dy);
                if (pts[m].re == a->z.re && pts[m].im == a->z.im) {
                    a->state = DONE;
                    continue;
                }
            }
            a->state = QUEUED;
            idx[m++] = i;
            queued = 1;
            if (m == LANES) {
                settle(n, zr, lam, slope, ftol, c, idx, pts, m);
                m = 0;
            }
        }
        if (!queued && m == 0)
            break;
        if (!queued) {
            settle(n, zr, lam, slope, ftol, c, idx, pts, m);
            m = 0;
        }
    }
    for (i = 0; i < k; i++)
        iterations += c[i].it;
    return iterations;
}

/* ---- the whole seminorm search ----------------------------------------- */

/* the constants of the boundary scan and of the peak starts */
typedef struct {
    int scan;       /* uniform angles */
    int local;      /* angles around each zero whose peak is narrower than 4 steps */
    double span;    /* ... spanning arg a +- span (1 - |a|) */
    Py_ssize_t noff;
    const double *offsets; /* the starts (1 - t/|B'(zeta)|) zeta, t in offsets */
    const cplx *uniform;   /* (cos, sin) of the uniform angles step * i */
} scan_rules;

typedef struct {
    double value;
    cplx argmax;
    Py_ssize_t starts;
    long iterations;
} search_result;

typedef struct { double re, im; Py_ssize_t index; } start_key;

static int cmp_double(const void *a, const void *b)
{
    double x = *(const double *)a, y = *(const double *)b;
    return (x > y) - (x < y);
}

/* lexicographic in (Re, Im), then by index */
static int cmp_start(const void *a, const void *b)
{
    const start_key *x = a, *y = b;
    if (x->re != y->re)
        return x->re < y->re ? -1 : 1;
    if (x->im != y->im)
        return x->im < y->im ? -1 : 1;
    return (x->index > y->index) - (x->index < y->index);
}

/* _argbest's rule: the larger value wins, and an exact tie goes to the
 * lexicographically smaller (Re, Im) point; candidates come in index order,
 * so an equal point keeps the earlier one */
static inline int beats(double f, cplx z, double best_f, cplx best_z)
{
    return f > best_f
           || (f == best_f && (z.re < best_z.re || (z.re == best_z.re && z.im < best_z.im)));
}

/* whether the peak of |B'| at zero a, about 1 - |a| wide, is narrower than
 * four scan steps, so that local angles sample it */
static inline int narrow_peak(cplx a, double step)
{
    return 1.0 - hypot(a.re, a.im) < 4.0 * step;
}

/* The sampled angles of products.boundary_peaks into theta, ascending and
 * distinct, their (cos, sin) into unit and |B'| there into modulus; returns
 * their count.  The local angles of the narrow zeros (np.linspace offsets,
 * reduced as np.mod does) are sorted in local and merged with the uniform
 * ones, whose (cos, sin) come from the rules' table; a local angle equal to
 * a uniform one is dropped.  weight receives 1 - |a|^2 per zero. */
static Py_ssize_t boundary_scan(Py_ssize_t n, const cplx *zr, const scan_rules *rules,
                                double *weight, double *theta, cplx *unit, double *modulus,
                                double *local)
{
    double two_pi = 2.0 * M_PI, step = two_pi / rules->scan;
    double dstep = (rules->span - -rules->span) / (rules->local - 1);
    Py_ssize_t m = 0, count = 0, i, j, k;

    for (j = 0; j < n; j++) {
        double a = hypot(zr[j].re, zr[j].im), depth = 1.0 - a, arg;
        weight[j] = 1.0 - a * a;
        if (!narrow_peak(zr[j], step))
            continue;
        arg = atan2(zr[j].im, zr[j].re);
        for (i = 0; i < rules->local; i++) {
            double off = i == rules->local - 1 ? rules->span : i * dstep + -rules->span;
            double t = fmod(arg + depth * off, two_pi);
            if (t < 0.0)
                t += two_pi;
            if (t < two_pi)
                local[m++] = t;
        }
    }
    qsort(local, m, sizeof(double), cmp_double);
    for (i = 0, k = 0; i < rules->scan || k < m;) {
        int uniform = k == m || (i < rules->scan && step * i <= local[k]);
        double t = uniform ? step * i : local[k];
        if (count == 0 || t > theta[count - 1]) {
            theta[count] = t;
            unit[count++] = uniform ? rules->uniform[i] : mk(cos(t), sin(t));
        }
        if (uniform)
            i++;
        else
            k++;
    }
    for (i = 0; i < count; i++) {
        double total = 0.0;
        for (j = 0; j < n; j++) {
            double dx = unit[i].re - zr[j].re, dy = unit[i].im - zr[j].im;
            total += weight[j] / (dx * dx + dy * dy);
        }
        modulus[i] = total;
    }
    return count;
}

/* The starts of _fallback._start_points into starts, deduplicated at their
 * first occurrence: the origin, the zeros, then (1 - t/|B'|) zeta for each
 * peak zeta = unit[p] of the scan and each offset t with a positive radius.
 * A peak is a sample at least its left neighbour and above its right one; a
 * modulus flat to relative 1e-12 gives one peak, at angle zero.  keys and
 * first are scratch of as many entries as starts.  Returns the count. */
static Py_ssize_t start_points(Py_ssize_t n, const cplx *zr, const scan_rules *rules,
                               Py_ssize_t count, const cplx *unit, const double *modulus,
                               cplx *starts, start_key *keys, unsigned char *first)
{
    double lo = HUGE_VAL, hi = -HUGE_VAL;
    Py_ssize_t k = 0, kept = 0, i, p;
    int flat;

    starts[k++] = mk(0.0, 0.0);
    for (i = 0; i < n; i++)
        starts[k++] = zr[i];
    for (i = 0; i < count; i++) {
        lo = fmin(lo, modulus[i]);
        hi = fmax(hi, modulus[i]);
    }
    flat = lo >= hi * (1.0 - 1e-12);
    for (p = 0; p < count; p++) {
        double before = modulus[p == 0 ? count - 1 : p - 1];
        double after = modulus[p == count - 1 ? 0 : p + 1];
        if (!(flat ? p == 0 : modulus[p] >= before && modulus[p] > after))
            continue;
        for (i = 0; i < rules->noff; i++) {
            double r = 1.0 - rules->offsets[i] / modulus[p];
            if (r > 0.0)
                starts[k++] = mk(r * unit[p].re, r * unit[p].im);
        }
    }
    for (i = 0; i < k; i++) {
        keys[i].re = starts[i].re;
        keys[i].im = starts[i].im;
        keys[i].index = i;
    }
    qsort(keys, k, sizeof(start_key), cmp_start);
    /* the first key of each run of equal points holds its first occurrence */
    for (i = 0; i < k; i++)
        first[keys[i].index] = i == 0 || keys[i].re != keys[i - 1].re
                               || keys[i].im != keys[i - 1].im;
    for (i = 0; i < k; i++)
        if (first[i])
            starts[kept++] = starts[i];
    return kept;
}

/* The multistart search of _fallback.seminorm_search: the lockstep ascent
 * of all starts, each with steps at most min(0.1, (1 - |z|)/2) long for the
 * start z, and the best start's end.  Scratch comes from PyMem_RawMalloc, so
 * this runs without the interpreter lock; returns 0 when it cannot be had. */
static int search(Py_ssize_t n, const cplx *zr, cplx lam, double slope, long max_iter, double ftol,
                  const scan_rules *rules, search_result *out)
{
    double *weight = NULL, *theta, *modulus, *local;
    cplx *starts = NULL, *unit;
    climber *c = NULL;
    start_key *keys;
    Py_ssize_t narrow = 0, cap, count, k, i;
    int ok = 0;

    for (i = 0; i < n; i++)
        narrow += narrow_peak(zr[i], 2.0 * M_PI / rules->scan);
    /* at most cap samples; one block for the weights, the samples' angles and
     * moduli, the local angles and the samples' (cos, sin) */
    cap = rules->scan + narrow * rules->local;
    weight = PyMem_RawMalloc((n + 2 * cap + narrow * rules->local) * sizeof(double)
                             + cap * sizeof(cplx));
    if (weight == NULL)
        goto done;
    theta = weight + n;
    modulus = theta + cap;
    local = modulus + cap;
    unit = (cplx *)(local + narrow * rules->local);
    count = boundary_scan(n, zr, rules, weight, theta, unit, modulus, local);
    /* room for the origin, the zeros and noff starts on every sample */
    k = 1 + n + rules->noff * count;
    starts = PyMem_RawMalloc(k * (sizeof(cplx) + sizeof(start_key) + 1));
    if (starts == NULL)
        goto done;
    keys = (start_key *)(starts + k);
    k = start_points(n, zr, rules, count, unit, modulus, starts, keys,
                     (unsigned char *)(keys + k));
    c = PyMem_RawMalloc(k * sizeof(climber));
    if (c == NULL)
        goto done;
    for (i = 0; i < k; i++) {
        c[i].z = starts[i];
        c[i].cap = fmin(0.1, 0.5 * (1.0 - hypot(starts[i].re, starts[i].im)));
        c[i].it = 0;
        c[i].state = START;
    }
    out->iterations = climb(n, zr, lam, slope, max_iter, ftol, c, k);
    out->value = -HUGE_VAL;
    out->argmax = starts[0];
    for (i = 0; i < k; i++) {
        if (beats(c[i].p.f, c[i].z, out->value, out->argmax)) {
            out->value = c[i].p.f;
            out->argmax = c[i].z;
        }
    }
    out->starts = k;
    ok = 1;
done:
    PyMem_RawFree(weight);
    PyMem_RawFree(starts);
    PyMem_RawFree(c);
    return ok;
}

/* ---- fiber tracking ---------------------------------------------------- */

enum { TRACKED = 0, UNDERFLOW = 1, COLLISION = 2, NOT_TRACKED = 3 };

typedef struct {
    double h_start, h_max, h_min;
    long newton_max, newton_easy;
    double newton_tol, newton_ulps, max_move, collision_tol;
} track_rules;

/* the route pieces w(t) = start + arm exp(kappa t) + t delta, t in [0, 1]: a
 * segment w0 -> w1 is (w0, 0, 0, w1 - w0), a circle about v from q is
 * (v, q - v, 2 pi i, 0) */
typedef struct { const cplx *start, *arm, *kappa, *delta; } route_pieces;

static cplx piece_at(const route_pieces *p, Py_ssize_t g, double t)
{
    cplx kt = scale(t, p->kappa[g]);
    return add(add(p->start[g], mul(p->arm[g], scale(exp(kt.re), mk(cos(kt.im), sin(kt.im))))),
               scale(t, p->delta[g]));
}

static inline int is_finite(cplx a) { return isfinite(a.re) && isfinite(a.im); }

/* |a| >= 1e-300, without squaring 1e-300, which underflows to 0; hypot only
 * where both parts are below it */
static inline int not_tiny(cplx a)
{
    return fabs(a.re) >= 1e-300 || fabs(a.im) >= 1e-300 || hypot(a.re, a.im) >= 1e-300;
}

/* The distance from each of the n points z to its nearest other point into
 * near; returns the smallest of them.  The pairs compare squared distances,
 * and each point takes one square root at the end. */
static double nearest(Py_ssize_t n, const cplx *z, double *near)
{
    double least = HUGE_VAL;
    Py_ssize_t i, j;
    for (i = 0; i < n; i++)
        near[i] = HUGE_VAL;
    for (i = 0; i < n; i++) {
        for (j = i + 1; j < n; j++) {
            double dist2 = norm2(sub(z[i], z[j]));
            if (dist2 < near[i])
                near[i] = dist2;
            if (dist2 < near[j])
                near[j] = dist2;
        }
        near[i] = sqrt(near[i]);
        if (near[i] < least)
            least = near[i];
    }
    return least;
}

/* Newton on B(x) = w for the n points of a fiber, in place; d receives B' at
 * each final iterate.  A point freezes at its first iterate with |B - w| <=
 * max(newton_tol, newton_ulps |x| |B'|): it keeps that iterate and its B',
 * and is neither evaluated nor updated again.  Returns the number of updates
 * the slowest point needed once every point is frozen, or -1 after more than
 * newton_max updates or a breakdown of a point still moving (B' not finite
 * or below 1e-300, an update not finite or beyond |x| = 1.2).  The tests
 * compare squared magnitudes.  frozen is scratch of n flags. */
static long correct(Py_ssize_t nz, const cplx *zr, cplx lam, Py_ssize_t n, cplx *x, cplx *d,
                    cplx *next, unsigned char *frozen, cplx w, const track_rules *rules)
{
    double tol2 = rules->newton_tol * rules->newton_tol;
    double ulps2 = rules->newton_ulps * rules->newton_ulps;
    long it;
    Py_ssize_t i;

    memset(frozen, 0, n);
    for (it = 0;; it++) {
        int done = 1, live = 1;
        for (i = 0; i < n; i++) {
            cplx b[2], r, step;
            double size2;
            if (frozen[i])
                continue;
            blaschke(nz, zr, x[i], 1, b);
            d[i] = mul(lam, b[1]);
            r = sub(mul(lam, b[0]), w);
            size2 = norm2(d[i]);
            if (norm2(r) <= fmax(tol2, ulps2 * norm2(x[i]) * size2)) {
                frozen[i] = 1;
                continue;
            }
            done = 0;
            step = sub(x[i], quot(r, d[i]));
            if (!(is_finite(d[i]) && not_tiny(d[i]) && is_finite(step) && norm2(step) <= 1.2 * 1.2))
                live = 0;
            next[i] = step;
        }
        if (done)
            return it;
        if (it == rules->newton_max || !live)
            return -1;
        for (i = 0; i < n; i++)
            if (!frozen[i])
                x[i] = next[i];
    }
}

/* The per-point state of a fiber under tracking: B' at each point, each
 * point's distance to its nearest other point, and each point's estimate of
 * B''/B', 0 before the route's first accepted step. */
typedef struct {
    cplx *der, *curv;
    double *near;
} fiber_state;

/* Continue the fiber z (n points, state s) along the pieces [first, first +
 * count); z ends as the last accepted fiber.  The predictor is the inverse
 * function's second-order Taylor step z + q - (B''/B') q^2 / 2, q = dw / B',
 * with B'' the divided difference of B' over the last two accepted fibers
 * (Euler on the route's first step).  The step in t halves when the
 * corrector fails or a point moves more than max_move times its own distance
 * to its nearest other point, doubles (up to h_max) after at most
 * newton_easy updates, and starts at h_start on every piece.  x, d, next,
 * fresh and frozen are scratch of n entries.  Returns a status: TRACKED, UNDERFLOW
 * below h_min, or COLLISION when two points of an accepted fiber are closer
 * than collision_tol. */
static int track_route(Py_ssize_t nz, const cplx *zr, cplx lam, Py_ssize_t n, cplx *z,
                       const fiber_state *s, const route_pieces *pieces, Py_ssize_t first,
                       Py_ssize_t count, const track_rules *rules, cplx *x, cplx *d, cplx *next,
                       double *fresh, unsigned char *frozen)
{
    Py_ssize_t g, i;

    for (g = first; g < first + count; g++) {
        double t = 0.0, h = rules->h_start;
        cplx w_prev = piece_at(pieces, g, 0.0);
        for (;;) {
            double t_new;
            cplx w_new, dw;
            long iters;

            if (h > 1.0 - t)
                h = 1.0 - t;
            t_new = t + h;
            w_new = piece_at(pieces, g, t_new);
            dw = sub(w_new, w_prev);
            for (i = 0; i < n; i++) {
                cplx q = quot(dw, s->der[i]);
                cplx pred = sub(add(z[i], q), mul(mul(mul(mk(0.5, 0.0), s->curv[i]), q), q));
                x[i] = is_finite(pred) ? pred : z[i];
            }
            iters = correct(nz, zr, lam, n, x, d, next, frozen, w_new, rules);
            /* a point may only move a fraction of its distance to its nearest
             * neighbour per step, or Newton can land on a neighbouring sheet
             * near a critical fiber without any collision; each pair keeps
             * at least 1 - 2 max_move of its distance */
            for (i = 0; iters >= 0 && i < n; i++) {
                double limit = rules->max_move * s->near[i];
                if (norm2(sub(x[i], z[i])) > limit * limit)
                    iters = -1;
            }
            if (iters < 0) {
                h *= 0.5;
                if (h < rules->h_min)
                    return UNDERFLOW;
                continue;
            }
            if (nearest(n, x, fresh) < rules->collision_tol)
                return COLLISION;
            for (i = 0; i < n; i++) {
                cplx ratio = quot(sub(d[i], s->der[i]), mul(sub(x[i], z[i]), d[i]));
                s->curv[i] = is_finite(ratio) ? ratio : mk(0.0, 0.0);
            }
            memcpy(z, x, n * sizeof(cplx));
            memcpy(s->der, d, n * sizeof(cplx));
            memcpy(s->near, fresh, n * sizeof(double));
            w_prev = w_new;
            t = t_new;
            if (iters <= rules->newton_easy)
                h = fmin(2.0 * h, rules->h_max);
            if (!(t < 1.0 - 1e-15))
                break;
        }
    }
    return TRACKED;
}

/* Track route l from row l of base (n points per row), route by route, into
 * ends (one row of n per route) and status; each route starts from its own
 * row's B' and nearest distances and with Euler's predictor, and the first
 * route that fails stops the rest, which are NOT_TRACKED.  scratch holds 5 n
 * points, 2 n doubles and n flags. */
static void track_routes_loop(Py_ssize_t nz, const cplx *zr, cplx lam, Py_ssize_t n,
                              const cplx *base, const route_pieces *pieces,
                              const int64_t *counts, Py_ssize_t routes,
                              const track_rules *rules, cplx *ends, int64_t *status,
                              cplx *scratch)
{
    cplx *x = scratch + 2 * n, *d = scratch + 3 * n, *next = scratch + 4 * n;
    double *fresh = (double *)(scratch + 5 * n);
    unsigned char *frozen = (unsigned char *)(fresh + 2 * n);
    fiber_state s = {scratch, scratch + n, fresh + n};
    Py_ssize_t l, i, first = 0;
    int failed = 0;

    for (l = 0; l < routes; first += counts[l], l++) {
        cplx *z = ends + l * n;
        memcpy(z, base + l * n, n * sizeof(cplx));
        if (failed) {
            status[l] = NOT_TRACKED;
            continue;
        }
        for (i = 0; i < n; i++) {
            cplx b[2];
            blaschke(nz, zr, z[i], 1, b);
            s.der[i] = mul(lam, b[1]);
            s.curv[i] = mk(0.0, 0.0);
        }
        nearest(n, z, s.near);
        status[l] = track_route(nz, zr, lam, n, z, &s, pieces, first, counts[l], rules, x, d,
                                next, fresh, frozen);
        failed = status[l] != TRACKED;
    }
}

/* ---- critical points --------------------------------------------------- */

/* p'/p at x into *newton, for p the numerator of g = B'/B over the d distinct
 * zeros zr with weights m_k (1 - |a_k|^2); returns the relative residual
 * |g| / sum_k |t_k| of g = sum_k t_k.  The formulas of the numpy reference's
 * _critical_ratio, summed in order over the zeros. */
static double critical_ratio(Py_ssize_t d, const cplx *zr, const double *weight, cplx x,
                             cplx *newton)
{
    cplx g = mk(0.0, 0.0), su = mk(0.0, 0.0), tu = mk(0.0, 0.0);
    double size = 0.0;
    Py_ssize_t k;

    for (k = 0; k < d; k++) {
        cplx ca = conjugate(zr[k]);
        cplx e = quot(mk(1.0, 0.0), sub(x, zr[k]));
        cplx f = quot(mk(1.0, 0.0), sub(mk(1.0, 0.0), mul(ca, x)));
        cplx t = mul(scale(weight[k], e), f);
        cplx u = sub(e, mul(ca, f));
        g = add(g, t);
        su = add(su, u);
        tu = add(tu, mul(t, u));
        size += hypot(t.re, t.im);
    }
    *newton = sub(su, quot(tu, g));
    return hypot(g.re, g.im) / size;
}

/* The Aberth sum of root i over the m iterates z and their mirror images:
 * sum_{j != i} 1/(z_i - z_j) + sum_j conj(z_j)/(z_i conj(z_j) - 1). */
static cplx repulsion(Py_ssize_t m, const cplx *z, Py_ssize_t i)
{
    cplx near = mk(0.0, 0.0), far = mk(0.0, 0.0);
    Py_ssize_t j;

    for (j = 0; j < m; j++) {
        cplx cz = conjugate(z[j]);
        if (j != i)
            near = add(near, quot(mk(1.0, 0.0), sub(z[i], z[j])));
        far = add(far, quot(cz, sub(mul(z[i], cz), mk(1.0, 0.0))));
    }
    return add(near, far);
}

/* Mirrored Ehrlich-Aberth on the m iterates z, in place, with the rules of
 * the numpy reference's _aberth: a root whose residual reaches freeze_tol
 * stops moving but stays in the sums; every sweep steps the live roots from
 * the same iterates, and an iterate that leaves the disk is replaced by its
 * mirror image; the iteration ends when no root is live, when every step is
 * below step_tol (1 + |z|), or after max_iter sweeps.  res receives each
 * root's relative residual.  step and live are scratch of m entries each. */
static void critical_loop(Py_ssize_t d, const cplx *zr, const double *weight, Py_ssize_t m,
                          cplx *z, double *res, double freeze_tol, long max_iter,
                          double step_tol, cplx *step, unsigned char *live)
{
    cplx newton;
    long it;
    Py_ssize_t i;

    for (i = 0; i < m; i++) {
        res[i] = HUGE_VAL;
        live[i] = 1;
    }
    for (it = 0; it < max_iter; it++) {
        int moving = 0, stalled = 1;
        for (i = 0; i < m; i++) {
            cplx s;
            if (!live[i])
                continue;
            res[i] = critical_ratio(d, zr, weight, z[i], &newton);
            if (res[i] <= freeze_tol) {
                live[i] = 0;
                continue;
            }
            moving = 1;
            s = quot(mk(1.0, 0.0), sub(newton, repulsion(m, z, i)));
            step[i] = is_finite(s) ? s : mk(0.0, 0.0);
        }
        if (!moving)
            break;
        for (i = 0; i < m; i++) {
            if (!live[i])
                continue;
            z[i] = sub(z[i], step[i]);
            if (hypot(z[i].re, z[i].im) > 1.0)
                z[i] = quot(mk(1.0, 0.0), conjugate(z[i]));
            if (!(hypot(step[i].re, step[i].im) / (1.0 + hypot(z[i].re, z[i].im)) < step_tol))
                stalled = 0;
        }
        if (stalled)
            break;
    }
    for (i = 0; i < m; i++)
        if (live[i])
            res[i] = critical_ratio(d, zr, weight, z[i], &newton);
}

typedef struct {
    const char *format, *name;
    Py_ssize_t itemsize;
    int writable;
    int size_of; /* index of the array whose item count this one has, or -1: any */
} array_spec;

static int check_count(const Py_buffer *view, const char *name, Py_ssize_t count)
{
    if (view->len / view->itemsize == count)
        return 0;
    PyErr_Format(PyExc_ValueError, "%s: expected %zd items, got %zd", name, count,
                 view->len / view->itemsize);
    return -1;
}

/* Get a C-contiguous buffer of `count` items (any count if negative) in the
 * struct format of `spec`; numpy reports int64 as 'l' where long has 64 bits. */
static int get_array(PyObject *obj, Py_buffer *view, const array_spec *spec, Py_ssize_t count)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (spec->writable ? PyBUF_WRITABLE : 0);

    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->itemsize != spec->itemsize
        || !(strcmp(view->format, spec->format) == 0
             || (strcmp(spec->format, "q") == 0 && strcmp(view->format, "l") == 0))) {
        PyErr_Format(PyExc_TypeError, "%s: expected format '%s', got '%s'", spec->name,
                     spec->format, view->format);
    } else if (count < 0 || check_count(view, spec->name, count) == 0) {
        return 0;
    }
    PyBuffer_Release(view);
    return -1;
}

static void release_arrays(Py_buffer *b, int count)
{
    while (count-- > 0)
        PyBuffer_Release(&b[count]);
}

/* Get the buffers of obj[0..count), each as long as spec says.  On failure
 * none is held. */
static int get_arrays(PyObject **obj, Py_buffer *b, const array_spec *spec, int count)
{
    int i;
    for (i = 0; i < count; i++) {
        int of = spec[i].size_of;
        if (get_array(obj[i], &b[i], &spec[i], of < 0 ? -1 : b[of].len / b[of].itemsize) < 0) {
            release_arrays(b, i);
            return -1;
        }
    }
    return 0;
}

/* The search of each product of a batch: product p has the zeros
 * zr[ends[p - 1] .. ends[p]) (from 0 for p = 0) and the rotation lams[p], and
 * its value, argmax, start count and iterations go to row p of the outputs.
 * The (cos, sin) table of the uniform scan angles is built once per call in
 * its own scratch, so calls share nothing.  Returns 0 when scratch cannot be
 * had. */
static int search_batch(const cplx *zr, const int64_t *ends, const cplx *lams, Py_ssize_t count,
                        double slope, long max_iter, double ftol, scan_rules *rules,
                        double *values, cplx *argmaxes, int64_t *starts, int64_t *iterations)
{
    double step = 2.0 * M_PI / rules->scan;
    cplx *uniform = PyMem_RawMalloc(rules->scan * sizeof(cplx));
    Py_ssize_t p, i, lo = 0;
    int ok = uniform != NULL;

    for (i = 0; ok && i < rules->scan; i++)
        uniform[i] = mk(cos(step * i), sin(step * i));
    rules->uniform = uniform;
    for (p = 0; ok && p < count; lo = ends[p++]) {
        search_result out;
        if (!(ok = search(ends[p] - lo, zr + lo, lams[p], slope, max_iter, ftol, rules, &out)))
            break;
        values[p] = out.value;
        argmaxes[p] = out.argmax;
        starts[p] = out.starts;
        iterations[p] = out.iterations;
    }
    PyMem_RawFree(uniform);
    return ok;
}

static const array_spec search_spec[8] = {
    {"Zd", "zeros", 16, 0, -1},     {"q", "ends", 8, 0, -1},   {"Zd", "lams", 16, 0, 1},
    {"d", "offsets", 8, 0, -1},     {"d", "values", 8, 1, 1},  {"Zd", "argmaxes", 16, 1, 1},
    {"q", "starts", 8, 1, 1},       {"q", "iterations", 8, 1, 1},
};

PyDoc_STRVAR(seminorm_search_doc,
"seminorm_search(zeros, ends, lams, slope, max_iter, ftol, scan_angles,\n"
"                local_angles, local_span, offsets, values, argmaxes, starts,\n"
"                iterations)\n\n"
"The multistart search of the numpy reference's seminorm_search for each product\n"
"of a batch in one call: product p has the zeros zeros[ends[p-1]:ends[p]] (from 0\n"
"for p = 0) and the rotation lams[p].  For each, the boundary scan on scan_angles\n"
"uniform angles plus local_angles over arg a +- local_span (1 - |a|) for each zero\n"
"near the circle, the deduplicated starts, one safeguarded Newton ascent per start\n"
"and the best of their ends.  Writes row p of values (float64), argmaxes\n"
"(complex128), starts and iterations (int64).");

static PyObject *seminorm_search(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *obj[8];
    Py_buffer b[8];
    scan_rules rules;
    int ok = 1;
    long max_iter;
    double slope, ftol;

    if (!PyArg_ParseTuple(args, "OOOdldiidOOOOO", &obj[0], &obj[1], &obj[2], &slope, &max_iter,
                          &ftol, &rules.scan, &rules.local, &rules.span, &obj[3], &obj[4],
                          &obj[5], &obj[6], &obj[7]))
        return NULL;
    if (rules.scan < 1 || rules.local < 2) {
        PyErr_SetString(PyExc_ValueError, "expected scan_angles >= 1 and local_angles >= 2");
        return NULL;
    }
    if (get_arrays(obj, b, search_spec, 8) < 0)
        return NULL;
    {
        const int64_t *ends = b[1].buf;
        Py_ssize_t n = b[0].len / 16, count = b[1].len / 8, p;
        int64_t last = 0;
        for (p = 0; p < count && ends[p] > last; p++)
            last = ends[p];
        if (p < count || last != n) {
            PyErr_Format(PyExc_ValueError,
                         "ends: expected increasing ends, the first above 0 and the last %zd",
                         n);
        } else {
            rules.offsets = b[3].buf;
            rules.noff = b[3].len / 8;
            Py_BEGIN_ALLOW_THREADS
            ok = search_batch(b[0].buf, ends, b[2].buf, count, slope, max_iter, ftol, &rules,
                              b[4].buf, b[5].buf, b[6].buf, b[7].buf);
            Py_END_ALLOW_THREADS
        }
    }
    release_arrays(b, 8);
    if (!ok)
        return PyErr_NoMemory();
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
}

static const array_spec track_spec[9] = {
    {"Zd", "zeros", 16, 0, -1}, {"Zd", "base", 16, 0, -1}, {"Zd", "start", 16, 0, -1},
    {"Zd", "arm", 16, 0, 2},    {"Zd", "kappa", 16, 0, 2}, {"Zd", "delta", 16, 0, 2},
    {"q", "counts", 8, 0, -1},  {"Zd", "ends", 16, 1, -1}, {"q", "status", 8, 1, 6},
};

PyDoc_STRVAR(track_routes_doc,
"track_routes(zeros, lam, base, start, arm, kappa, delta, counts, rules, ends,\n"
"             status)\n\n"
"Continue the start fiber base[l * n:(l + 1) * n] along route l, for every route,\n"
"one after the other; n is the number of zeros.  Route l is the next counts[l]\n"
"pieces; rules is (h_start, h_max, h_min, newton_max, newton_easy, newton_tol,\n"
"newton_ulps, max_move, collision_tol).  Writes the end fiber of route l to\n"
"ends[l * n:(l + 1) * n] and its status (int64) to status[l].");

static PyObject *track_routes(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *obj[9];
    Py_buffer b[9];
    Py_complex lam;
    track_rules rules;
    cplx *scratch;
    Py_ssize_t i, total = 0;

    if (!PyArg_ParseTuple(args, "ODOOOOOO(dddlldddd)OO", &obj[0], &lam, &obj[1], &obj[2],
                          &obj[3], &obj[4], &obj[5], &obj[6], &rules.h_start, &rules.h_max,
                          &rules.h_min, &rules.newton_max, &rules.newton_easy,
                          &rules.newton_tol, &rules.newton_ulps, &rules.max_move,
                          &rules.collision_tol, &obj[7], &obj[8])
        || get_arrays(obj, b, track_spec, 9) < 0)
        return NULL;
    {
        const int64_t *counts = b[6].buf;
        Py_ssize_t n = b[0].len / 16, routes = b[6].len / 8;
        int negative = 0;
        for (i = 0; i < routes; i++) {
            negative |= counts[i] < 0;
            total += counts[i];
        }
        if (negative || total != b[2].len / 16) {
            PyErr_Format(PyExc_ValueError, "counts: expected nonnegative counts summing to %zd",
                         b[2].len / 16);
        } else if (check_count(&b[1], "base", routes * n) == 0
                   && check_count(&b[7], "ends", routes * n) == 0) {
            route_pieces pieces = {b[2].buf, b[3].buf, b[4].buf, b[5].buf};
            scratch = PyMem_Malloc(5 * n * sizeof(cplx) + 2 * n * sizeof(double) + n);
            if (scratch == NULL) {
                PyErr_NoMemory();
            } else {
                Py_BEGIN_ALLOW_THREADS
                track_routes_loop(b[0].len / 16, b[0].buf, mk(lam.real, lam.imag), n, b[1].buf,
                                  &pieces, counts, routes, &rules, b[7].buf, b[8].buf, scratch);
                Py_END_ALLOW_THREADS
                PyMem_Free(scratch);
            }
        }
    }
    release_arrays(b, 9);
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
}

static const array_spec critical_spec[5] = {
    {"Zd", "zeros", 16, 0, -1}, {"q", "mult", 8, 0, 0},  {"Zd", "start", 16, 0, -1},
    {"Zd", "roots", 16, 1, 2},  {"d", "res", 8, 1, 2},
};

PyDoc_STRVAR(critical_roots_doc,
"critical_roots(zeros, mult, start, freeze_tol, max_iter, step_tol, roots, res)\n\n"
"Mirrored Ehrlich-Aberth from start on the numerator of g = B'/B over the\n"
"distinct zeros with multiplicities mult (int64).  Writes the roots (complex128)\n"
"and their relative residuals (float64).");

static PyObject *critical_roots(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *obj[5];
    Py_buffer b[5];
    double freeze_tol, step_tol;
    long max_iter;

    if (!PyArg_ParseTuple(args, "OOOdldOO", &obj[0], &obj[1], &obj[2], &freeze_tol, &max_iter,
                          &step_tol, &obj[3], &obj[4])
        || get_arrays(obj, b, critical_spec, 5) < 0)
        return NULL;
    {
        const cplx *zr = b[0].buf;
        const int64_t *mult = b[1].buf;
        Py_ssize_t d = b[0].len / 16, m = b[2].len / 16, k;
        /* one block: d weights, m steps, m live flags */
        double *weight = PyMem_Malloc((d + 2 * m) * sizeof(double) + m);
        if (weight == NULL) {
            PyErr_NoMemory();
        } else {
            cplx *step = (cplx *)(weight + d);
            unsigned char *live = (unsigned char *)(step + m);
            cplx *z = b[3].buf;
            Py_BEGIN_ALLOW_THREADS
            for (k = 0; k < d; k++) {
                double a = hypot(zr[k].re, zr[k].im);
                weight[k] = (double)mult[k] * (1.0 - a * a);
            }
            memmove(z, b[2].buf, m * sizeof(cplx)); /* start may be roots */
            critical_loop(d, zr, weight, m, z, b[4].buf, freeze_tol, max_iter, step_tol, step,
                          live);
            Py_END_ALLOW_THREADS
            PyMem_Free(weight);
        }
    }
    release_arrays(b, 5);
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"seminorm_search", seminorm_search, METH_VARARGS, seminorm_search_doc},
    {"track_routes", track_routes, METH_VARARGS, track_routes_doc},
    {"critical_roots", critical_roots, METH_VARARGS, critical_roots_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckernel",
    "Compiled Bloch-seminorm and fiber-tracking kernels; see blochkit._kernels for the\n"
    "contract.",
    0, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__ckernel(void) { return PyModule_Create(&module); }
