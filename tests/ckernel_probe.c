/* The compiled kernel's source, with four static routines exposed to the
 * tests: derivatives(zeros, z, order) -> (P, P', ...) for P the product of the
 * Blaschke factors at z and order 1 or 3, as blaschke() returns them;
 * lanes(zeros, points) -> [(P, P', P'', P'''), ...], the same from
 * blaschke_lanes(), LANES points per call and the last call short when the
 * count is not a multiple of LANES; objective(zeros, lam, z, slope) -> f,
 * the seminorm objective of ascent_terms() at z; and climb(zeros, lam,
 * slope, starts, caps, max_iter, ftol) -> (values, points, iterations), the
 * lockstep ascent of climb() from the starts with their step caps.  The
 * ``ckernel_probe`` fixture of conftest.py builds it with the kernel's flags,
 * so a sanitizer build of the kernel tests covers these paths too. */
#include "_ckernel.c"

static const array_spec probe_spec[3] = {
    {"Zd", "zeros", 16, 0, -1}, {"Zd", "points", 16, 0, -1}, {"d", "caps", 8, 0, 1},
};

static PyObject *complex_of(cplx a) { return PyComplex_FromDoubles(a.re, a.im); }

static PyObject *derivatives(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *obj;
    Py_buffer b;
    Py_complex z, out[4];
    cplx d[4];
    int order, k;

    if (!PyArg_ParseTuple(args, "ODi", &obj, &z, &order))
        return NULL;
    if (order != 1 && order != 3) {
        PyErr_SetString(PyExc_ValueError, "order must be 1 or 3");
        return NULL;
    }
    if (get_array(obj, &b, &probe_spec[0], -1) < 0)
        return NULL;
    blaschke(b.len / 16, b.buf, mk(z.real, z.imag), order, d);
    PyBuffer_Release(&b);
    for (k = 0; k <= order; k++) {
        out[k].real = d[k].re;
        out[k].imag = d[k].im;
    }
    return order == 1 ? Py_BuildValue("(DD)", &out[0], &out[1])
                      : Py_BuildValue("(DDDD)", &out[0], &out[1], &out[2], &out[3]);
}

static PyObject *lanes(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *obj[2], *list = NULL;
    Py_buffer b[2];
    cplx d[LANES][4];
    const cplx *z;
    Py_ssize_t count, i;
    int l;

    if (!PyArg_ParseTuple(args, "OO", &obj[0], &obj[1]) || get_arrays(obj, b, probe_spec, 2) < 0)
        return NULL;
    z = b[1].buf;
    count = b[1].len / 16;
    list = PyList_New(0);
    for (i = 0; list != NULL && i < count; i += LANES) {
        int m = count - i < LANES ? (int)(count - i) : LANES;
        blaschke_lanes(b[0].len / 16, b[0].buf, m, z + i, d);
        for (l = 0; list != NULL && l < m; l++) {
            PyObject *row = Py_BuildValue("(NNNN)", complex_of(d[l][0]), complex_of(d[l][1]),
                                          complex_of(d[l][2]), complex_of(d[l][3]));
            if (row == NULL || PyList_Append(list, row) < 0)
                Py_CLEAR(list);
            Py_XDECREF(row);
        }
    }
    release_arrays(b, 2);
    return list;
}

static PyObject *objective(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *obj;
    Py_buffer b;
    Py_complex lam, z;
    cplx point;
    double slope;
    ascent_point p;

    if (!PyArg_ParseTuple(args, "ODDd", &obj, &lam, &z, &slope))
        return NULL;
    if (get_array(obj, &b, &probe_spec[0], -1) < 0)
        return NULL;
    point = mk(z.real, z.imag);
    ascent_terms(b.len / 16, b.buf, mk(lam.real, lam.imag), slope, 1, &point, &p);
    PyBuffer_Release(&b);
    return PyFloat_FromDouble(p.f);
}

static PyObject *climb_starts(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *obj[3], *out = NULL;
    Py_buffer b[3];
    Py_complex lam;
    climber *c;
    double slope, ftol;
    long max_iter;
    Py_ssize_t k, i;

    if (!PyArg_ParseTuple(args, "ODdOOld", &obj[0], &lam, &slope, &obj[1], &obj[2], &max_iter,
                          &ftol)
        || get_arrays(obj, b, probe_spec, 3) < 0)
        return NULL;
    k = b[1].len / 16;
    c = PyMem_Malloc(k * sizeof(climber));
    if (c == NULL) {
        PyErr_NoMemory();
    } else {
        PyObject *values = PyList_New(k), *points = PyList_New(k), *iters = PyList_New(k);
        for (i = 0; i < k; i++) {
            c[i].z = ((const cplx *)b[1].buf)[i];
            c[i].cap = ((const double *)b[2].buf)[i];
            c[i].it = 0;
            c[i].state = START;
        }
        climb(b[0].len / 16, b[0].buf, mk(lam.real, lam.imag), slope, max_iter, ftol, c, k);
        for (i = 0; values != NULL && points != NULL && iters != NULL && i < k; i++) {
            PyList_SET_ITEM(values, i, PyFloat_FromDouble(c[i].p.f));
            PyList_SET_ITEM(points, i, complex_of(c[i].z));
            PyList_SET_ITEM(iters, i, PyLong_FromLong(c[i].it));
        }
        if (values != NULL && points != NULL && iters != NULL)
            out = Py_BuildValue("(OOO)", values, points, iters);
        Py_XDECREF(values);
        Py_XDECREF(points);
        Py_XDECREF(iters);
        PyMem_Free(c);
    }
    release_arrays(b, 3);
    return out;
}

static PyMethodDef probe_methods[] = {
    {"derivatives", derivatives, METH_VARARGS, "(P, P', ...) of blaschke() at z."},
    {"lanes", lanes, METH_VARARGS, "(P, P', P'', P''') of blaschke_lanes() at each point."},
    {"objective", objective, METH_VARARGS, "f of ascent_terms() at z."},
    {"climb", climb_starts, METH_VARARGS, "(values, points, iterations) of climb()."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef probe_module = {
    PyModuleDef_HEAD_INIT, "_ckernel_probe",
    "The compiled B evaluators, objective and lockstep ascent.",
    0, probe_methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__ckernel_probe(void) { return PyModule_Create(&probe_module); }
