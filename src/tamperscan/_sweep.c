/* One cyclic coordinate-descent sweep of the covariance-form elastic net.
 *
 * The compiled twin of elastic_net._sweep_py: the same IEEE operations in
 * the same order, so both give bit-identical coefficients. Build without
 * FMA contraction (-ffp-contract=off), or `q[k] + d * G[j,k]` may round once
 * instead of twice. elastic_net._compiled_sweep builds and loads this file.
 *
 * sweep(G, c, diag, denom, beta, q, gamma) -> max |move|
 *
 * G is p x p, c, diag (G's diagonal), denom (diag + ridge), beta and q
 * (= G beta) have p entries, all float64 and C-contiguous; beta and q are
 * updated in place. The caller checks dtypes; this checks sizes. The GIL is
 * released for the sweep itself.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

static PyObject *
sweep(PyObject *self, PyObject *args)
{
    Py_buffer G, c, diag, denom, beta, q;
    double gamma, max_delta = 0.0;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "y*y*y*y*w*w*d", &G, &c, &diag, &denom, &beta, &q, &gamma))
        return NULL;
    Py_ssize_t p = c.len / (Py_ssize_t)sizeof(double);
    if (c.len != p * (Py_ssize_t)sizeof(double) || G.len != p * c.len || diag.len != c.len
        || denom.len != c.len || beta.len != c.len || q.len != c.len) {
        PyErr_SetString(PyExc_ValueError, "sweep: G must be p x p and every vector p long");
        goto done;
    }

    const double *g = G.buf, *cv = c.buf, *dg = diag.buf, *dn = denom.buf;
    double *b = beta.buf, *qv = q.buf;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t j = 0; j < p; j++) {
        double old = b[j], rho, new;
        if (dn[j] == 0.0)
            continue;
        if (old == 0.0) {
            rho = cv[j] - qv[j];
            if (-gamma <= rho && rho <= gamma)
                continue;
        } else {
            rho = cv[j] - qv[j] + dg[j] * old;
        }
        if (rho > gamma)
            new = (rho - gamma) / dn[j];
        else if (rho < -gamma)
            new = (rho + gamma) / dn[j];
        else
            new = 0.0;
        double d = new - old;
        if (d != 0.0) {
            const double *row = g + j * p;
            for (Py_ssize_t k = 0; k < p; k++)
                qv[k] = qv[k] + d * row[k];
            b[j] = new;
            if (fabs(d) > max_delta)
                max_delta = fabs(d);
        }
    }
    Py_END_ALLOW_THREADS
    result = PyFloat_FromDouble(max_delta);

done:
    PyBuffer_Release(&G);
    PyBuffer_Release(&c);
    PyBuffer_Release(&diag);
    PyBuffer_Release(&denom);
    PyBuffer_Release(&beta);
    PyBuffer_Release(&q);
    return result;
}

static PyMethodDef methods[] = {
    {"sweep", sweep, METH_VARARGS, "One coordinate-descent sweep; returns the largest move."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_sweep", NULL, -1, methods};

PyMODINIT_FUNC
PyInit__sweep(void)
{
    return PyModule_Create(&module);
}
