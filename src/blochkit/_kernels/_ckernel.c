/* Compiled kernel backend: the scalar objective and one Nelder-Mead pass per
 * start, as a plain CPython module.
 *
 * blochkit._kernels makes the inputs contiguous and allocates the outputs;
 * this module reads and writes them through the buffer protocol, so it needs
 * no numpy headers.  Both loops run with the interpreter lock released, and
 * nothing here is global mutable state, so concurrent calls are safe.  The
 * objective and the branch logic are those of the numpy reference,
 * blochkit._kernels._fallback, evaluated one point at a time.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define ZERO_SWITCH2 1e-16 /* squared distance below which the product rule takes over */

typedef struct { double re, im; } cplx;

static inline cplx mk(double re, double im) { cplx r = {re, im}; return r; }
static inline cplx add(cplx a, cplx b) { return mk(a.re + b.re, a.im + b.im); }
static inline cplx sub(cplx a, cplx b) { return mk(a.re - b.re, a.im - b.im); }
static inline cplx scale(double s, cplx a) { return mk(s * a.re, s * a.im); }
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

/* |f'(B(z))| |B'(z)| (1 - |z|^2), or -1 at and beyond the barrier */
static double objective(Py_ssize_t n, const cplx *zr, cplx lam, cplx z, int kind,
                        double barrier2)
{
    double r2 = z.re * z.re + z.im * z.im, min_d2 = HUGE_VAL, fp;
    cplx prod = mk(1.0, 0.0), lsum = mk(0.0, 0.0), bp, u;
    Py_ssize_t j, k;

    if (r2 >= barrier2)
        return -1.0;
    for (j = 0; j < n; j++) {
        cplx num = sub(z, zr[j]), den = factor_den(zr[j], z);
        double aj2 = zr[j].re * zr[j].re + zr[j].im * zr[j].im;
        double d2 = num.re * num.re + num.im * num.im;
        prod = mul(prod, quot(num, den));
        lsum = add(lsum, quot(mk(1.0 - aj2, 0.0), mul(num, den)));
        if (d2 < min_d2)
            min_d2 = d2;
    }
    if (min_d2 > ZERO_SWITCH2) {
        bp = mul(prod, lsum);
    } else {
        bp = mk(0.0, 0.0);
        for (j = 0; j < n; j++) {
            cplx den = factor_den(zr[j], z);
            double aj2 = zr[j].re * zr[j].re + zr[j].im * zr[j].im;
            cplx term = quot(mk(1.0 - aj2, 0.0), mul(den, den));
            for (k = 0; k < n; k++)
                if (k != j)
                    term = mul(term, quot(sub(z, zr[k]), factor_den(zr[k], z)));
            bp = add(bp, term);
        }
    }
    if (kind == 0) {
        fp = 1.0;
    } else if (kind == 1) {
        double u2;
        u = sub(mk(1.0, 0.0), mul(lam, prod));
        u2 = u.re * u.re + u.im * u.im;
        fp = 1.0 / (u2 < 1e-250 ? 1e-250 : u2);
    } else {
        u = add(mk(1.0, 0.0), mul(lam, prod));
        fp = hypot(u.re, u.im);
    }
    return fp * hypot(bp.re, bp.im) * (1.0 - r2);
}

static inline void swap_if_less(cplx *v, double *f, int a, int b)
{
    if (f[a] < f[b]) {
        double tf = f[a];
        cplx tz = v[a];
        f[a] = f[b]; f[b] = tf;
        v[a] = v[b]; v[b] = tz;
    }
}

/* stable sort of the simplex by descending f */
static void sort3(cplx *v, double *f)
{
    swap_if_less(v, f, 0, 1);
    swap_if_less(v, f, 1, 2);
    swap_if_less(v, f, 0, 1);
}

/* one Nelder-Mead maximization from z0 with initial edge h; returns iterations */
static long nelder_mead(Py_ssize_t n, const cplx *zr, cplx lam, int kind, cplx z0,
                        double h, long max_iter, double ftol, double barrier2,
                        double *best_f, cplx *best_z)
{
    cplx v[3], c, xr, xe, xc;
    double f[3], fr, fe, fc;
    long it = 0;
    int i, shrink;

    v[0] = z0;
    v[1] = mk(z0.re + h, z0.im);
    if (v[1].re * v[1].re + v[1].im * v[1].im >= barrier2)
        v[1] = mk(z0.re - h, z0.im);
    v[2] = mk(z0.re, z0.im + h);
    if (v[2].re * v[2].re + v[2].im * v[2].im >= barrier2)
        v[2] = mk(z0.re, z0.im - h);
    for (i = 0; i < 3; i++)
        f[i] = objective(n, zr, lam, v[i], kind, barrier2);

    while (it < max_iter) {
        sort3(v, f);
        if (f[0] - f[2] <= ftol)
            break;
        it++;
        c = scale(0.5, add(v[0], v[1]));
        xr = add(c, sub(c, v[2]));
        fr = objective(n, zr, lam, xr, kind, barrier2);
        shrink = 0;
        if (fr > f[0]) {
            xe = add(c, scale(2.0, sub(xr, c)));
            fe = objective(n, zr, lam, xe, kind, barrier2);
            if (fe > fr) { v[2] = xe; f[2] = fe; }
            else { v[2] = xr; f[2] = fr; }
        } else if (fr > f[1]) {
            v[2] = xr; f[2] = fr;
        } else if (fr > f[2]) {
            xc = add(c, scale(0.5, sub(xr, c)));
            fc = objective(n, zr, lam, xc, kind, barrier2);
            if (fc >= fr) { v[2] = xc; f[2] = fc; }
            else shrink = 1;
        } else {
            xc = add(c, scale(0.5, sub(v[2], c)));
            fc = objective(n, zr, lam, xc, kind, barrier2);
            if (fc > f[2]) { v[2] = xc; f[2] = fc; }
            else shrink = 1;
        }
        if (shrink) {
            v[1] = add(v[0], scale(0.5, sub(v[1], v[0])));
            v[2] = add(v[0], scale(0.5, sub(v[2], v[0])));
            f[1] = objective(n, zr, lam, v[1], kind, barrier2);
            f[2] = objective(n, zr, lam, v[2], kind, barrier2);
        }
    }
    sort3(v, f);
    *best_f = f[0];
    *best_z = v[0];
    return it;
}

typedef struct {
    const char *format, *name;
    Py_ssize_t itemsize;
    int writable;
} array_spec;

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
    } else if (count >= 0 && view->len / view->itemsize != count) {
        PyErr_Format(PyExc_ValueError, "%s: expected %zd items, got %zd", spec->name, count,
                     view->len / view->itemsize);
    } else {
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

/* Get the buffers of obj[0..count): the zeros and the points of any length,
 * every later array as long as the points.  On failure none is held. */
static int get_arrays(PyObject **obj, Py_buffer *b, const array_spec *spec, int count)
{
    int i;
    for (i = 0; i < count; i++) {
        if (get_array(obj[i], &b[i], &spec[i], i < 2 ? -1 : b[1].len / b[1].itemsize) < 0) {
            release_arrays(b, i);
            return -1;
        }
    }
    return 0;
}

static int check_kind(int kind)
{
    if (kind >= 0 && kind <= 2)
        return 0;
    PyErr_Format(PyExc_ValueError, "unknown catalog kind %d", kind);
    return -1;
}

static const array_spec pointwise_spec[3] = {
    {"Zd", "zeros", 16, 0}, {"Zd", "pts", 16, 0}, {"d", "out", 8, 1},
};

PyDoc_STRVAR(pointwise_batch_doc,
"pointwise_batch(zeros, lam, pts, out, f_kind, barrier_radius)\n\n"
"Write the objective at each of pts (complex128) into out (float64).");

static PyObject *pointwise_batch(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *obj[3];
    Py_buffer b[3];
    Py_complex lam;
    int kind;
    double radius;
    Py_ssize_t i;

    if (!PyArg_ParseTuple(args, "ODOOid", &obj[0], &lam, &obj[1], &obj[2], &kind, &radius)
        || check_kind(kind) < 0 || get_arrays(obj, b, pointwise_spec, 3) < 0)
        return NULL;
    {
        const cplx *zr = b[0].buf, *pts = b[1].buf;
        double *out = b[2].buf, barrier2 = radius * radius;
        cplx clam = mk(lam.real, lam.imag);
        Py_ssize_t n = b[0].len / 16, m = b[1].len / 16;
        Py_BEGIN_ALLOW_THREADS
        for (i = 0; i < m; i++)
            out[i] = objective(n, zr, clam, pts[i], kind, barrier2);
        Py_END_ALLOW_THREADS
    }
    release_arrays(b, 3);
    Py_RETURN_NONE;
}

static const array_spec refine_spec[6] = {
    {"Zd", "zeros", 16, 0}, {"Zd", "starts", 16, 0}, {"d", "scales", 8, 0},
    {"d", "values", 8, 1},  {"Zd", "points", 16, 1}, {"q", "iterations", 8, 1},
};

PyDoc_STRVAR(refine_starts_doc,
"refine_starts(zeros, lam, starts, scales, f_kind, max_iter, ftol, barrier_radius,\n"
"              values, points, iterations)\n\n"
"One Nelder-Mead maximization per start; writes the best value (float64), its\n"
"point (complex128) and the iteration count (int64) of each start.");

static PyObject *refine_starts(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *obj[6];
    Py_buffer b[6];
    Py_complex lam;
    int kind;
    long max_iter;
    double ftol, radius;
    Py_ssize_t i;

    if (!PyArg_ParseTuple(args, "ODOOilddOOO", &obj[0], &lam, &obj[1], &obj[2], &kind,
                          &max_iter, &ftol, &radius, &obj[3], &obj[4], &obj[5])
        || check_kind(kind) < 0 || get_arrays(obj, b, refine_spec, 6) < 0)
        return NULL;
    {
        const cplx *zr = b[0].buf, *starts = b[1].buf;
        const double *scales = b[2].buf;
        double *values = b[3].buf, barrier2 = radius * radius;
        cplx *points = b[4].buf, clam = mk(lam.real, lam.imag);
        int64_t *iterations = b[5].buf;
        Py_ssize_t n = b[0].len / 16, k = b[1].len / 16;
        Py_BEGIN_ALLOW_THREADS
        for (i = 0; i < k; i++)
            iterations[i] = nelder_mead(n, zr, clam, kind, starts[i], scales[i], max_iter,
                                        ftol, barrier2, &values[i], &points[i]);
        Py_END_ALLOW_THREADS
    }
    release_arrays(b, 6);
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"pointwise_batch", pointwise_batch, METH_VARARGS, pointwise_batch_doc},
    {"refine_starts", refine_starts, METH_VARARGS, refine_starts_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckernel",
    "Compiled Bloch-seminorm kernels; see blochkit._kernels for the contract.",
    0, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__ckernel(void) { return PyModule_Create(&module); }
