"""Adaptive Gauss-Kronrod quadrature: a port of QUADPACK's ``dqagse``.

The rule, the error estimate, the bisection of the panel with the largest
error and the Wynn epsilon-table extrapolation are those of QUADPACK
(Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, *QUADPACK*, Springer
1983; Wynn, *MTAC* 10, 1956): ``dqk21``, ``dqagse``, ``dqpsrt`` and
``dqelg``, in the same order of operations.  Integrands take arrays: each
Gauss-Kronrod pass evaluates all 21 nodes of every panel in one call, then
forms dqk21's sums panel by panel in Python floats.  :func:`qagse`
integrates many intervals at once, running the first pass on all of them
together and the adaptive loop only on those it leaves open.
"""

from __future__ import annotations

import numpy as np

_EPMACH = float(np.finfo(float).eps)        # d1mach(4)
_UFLOW = float(np.finfo(float).tiny)        # d1mach(1)
_OFLOW = float(np.finfo(float).max)         # d1mach(2)

LIMIT = 200     # panels per interval, as scipy.integrate.quad was given

# 21-point Kronrod abscissae on [0, 1), descending; the odd entries
# (xgk[1], xgk[3], ...) are the nodes of the 10-point Gauss rule
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208969293241, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])

# Node layout of one panel: the centre, then the nodes left of it and those
# right of it, each side with the Gauss nodes first.  That is the order in
# which dqk21 adds its Kronrod and Gauss terms, so _panel reads the pairs
# f(c - h x) + f(c + h x) straight down the layout.
_ORDER = np.array([1, 3, 5, 7, 9, 0, 2, 4, 6, 8])
_NODES = np.concatenate(([0.0], -_XGK[_ORDER], _XGK[_ORDER]))
# Kronrod weights in that layout, the centre's first, as Python floats
_WK = [float(_WGK[10])] + _WGK[_ORDER].tolist()
_WG_LIST = _WG.tolist()
# dqk21 takes the |f - mean| sum in node order: each weight with the
# layout column of its left node
_ASC_PAIRS = list(zip(_WGK[:10].tolist(), (1 + np.argsort(_ORDER)).tolist()))


class QuadratureAccuracyError(RuntimeError):
    """Adaptive quadrature could not meet the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error bound {achieved:.3e})")
        self.achieved = achieved


def _qk21(f, a, b):
    """The 21-point Gauss-Kronrod rule on the panels [a[i], b[i]], given as
    sequences of floats.

    Returns one (result, abserr, resabs, resasc) per panel as ``dqk21``
    does: the Kronrod value, its error estimate, and the rule applied to
    |f| and to |f - mean|.  ``f`` is called once, on an array of shape
    (len(a), 21); the sums then run panel by panel in dqk21's order, so the
    bits are QUADPACK's.
    """
    centr = np.array([0.5 * (lo + hi) for lo, hi in zip(a, b)])
    hlgth = [0.5 * (hi - lo) for lo, hi in zip(a, b)]
    x = np.multiply.outer(hlgth, _NODES)
    x += centr[:, None]
    fx = np.asarray(f(x), dtype=float)
    return [_panel(fv, av, h) for fv, av, h in
            zip(fx.tolist(), np.abs(fx).tolist(), hlgth)]


def _panel(fv, av, hlgth):
    """dqk21 on one panel from its 21 values ``fv`` in the _NODES layout
    and their moduli ``av``: (result, abserr, resabs, resasc)."""
    resk = _WK[0] * fv[0]
    resabs = _WK[0] * av[0]
    resg = 0.0
    for wk, wg, f1, f2, a1, a2 in zip(_WK[1:6], _WG_LIST, fv[1:6], fv[11:16],
                                      av[1:6], av[11:16]):
        fsum = f1 + f2
        resg += wg * fsum
        resk += wk * fsum
        resabs += wk * (a1 + a2)
    for wk, f1, f2, a1, a2 in zip(_WK[6:], fv[6:11], fv[16:], av[6:11],
                                  av[16:]):
        resk += wk * (f1 + f2)
        resabs += wk * (a1 + a2)
    reskh = resk * 0.5
    resasc = _WK[0] * abs(fv[0] - reskh)
    for wk, k in _ASC_PAIRS:
        resasc += wk * (abs(fv[k] - reskh) + abs(fv[k + 10] - reskh))

    dhlgth = abs(hlgth)
    resabs *= dhlgth
    resasc *= dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(50.0 * _EPMACH * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def qagse(f, a, b, epsabs: float, epsrel: float):
    """integral(f, a[i]..b[i]) for every i, to max(epsabs, epsrel*|I|).

    Returns arrays (result, abserr).  The first Gauss-Kronrod pass runs on
    all intervals in one call of ``f``; an interval it does not settle by
    ``dqagse``'s own test goes through ``dqagse``'s adaptive loop, which
    bisects and extrapolates with up to LIMIT panels.  Each interval
    gets what ``dqagse`` alone would give it.  As with QUADPACK, reaching
    the panel limit or detecting roundoff does not raise: read ``abserr``.
    """
    a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)),
                               np.atleast_1d(np.asarray(b, dtype=float)))
    result, abserr, defabs, resasc = np.array(
        _qk21(f, a.tolist(), b.tolist())).reshape(-1, 4).T
    errbnd = np.maximum(epsabs, epsrel * np.abs(result))
    settled = (((abserr <= errbnd) & (abserr != resasc)) | (abserr == 0.0)
               | ((abserr <= 100.0 * _EPMACH * defabs) & (abserr > errbnd)))
    for i in np.flatnonzero(~settled):
        result[i], abserr[i] = _adapt(f, float(a[i]), float(b[i]), epsabs,
                                      epsrel, float(result[i]),
                                      float(abserr[i]))
    return result, abserr


def integrate(f, a, b, abs_tol: float, what: str = "integral"):
    """integral(f, a[i]..b[i]) for every i, each certified to ``abs_tol``.

    Asks :func:`qagse` for epsabs = abs_tol * 1e-2 and epsrel = 1e-12 and
    raises :class:`QuadratureAccuracyError` unless every achieved error
    bound is at most ``abs_tol``.
    """
    result, abserr = qagse(f, a, b, abs_tol * 1e-2, 1e-12)
    if not np.all(abserr <= abs_tol):
        raise QuadratureAccuracyError(f"{what} did not converge",
                                      float(np.max(abserr)))
    return result


def _adapt(f, a, b, epsabs, epsrel, result, abserr):
    """The adaptive loop of ``dqagse`` on [a, b], started from its first
    Gauss-Kronrod pass (result, abserr).  Lists are 1-based as in
    QUADPACK; the return value is (result, abserr)."""
    limit = LIMIT
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 55
    res3la = [0.0] * 4
    alist[1], blist[1], rlist[1], elist[1], iord[1] = a, b, result, abserr, 1

    rlist2[1] = result
    errmax = errsum = abserr
    area = result
    abserr = _OFLOW
    maxerr = nrmax = 1
    nres = ktmin = 0
    numrl2 = 2
    extrap = noext = False
    ier = ierro = iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0

    for last in range(2, limit + 1):
        # bisect the panel with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        (area1, error1, _, defab1), (area2, error2, _, defab2) = (
            _qk21(f, (a1, a2), (b1, b2)))

        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if (abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12)
                    and erro12 >= 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2                 # roundoff
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1                 # panel limit
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (
                abs(a2) + 1000.0 * _UFLOW):
            ier = 4                 # panel too small to bisect

        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord,
                                       nrmax)

        if errsum <= errbnd:
            return _panel_sum(rlist, last), errsum
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # extrapolate once the panel to bisect next is a smallest one
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # a smallest panel has the largest error: bisect the larger
            # panels first, unless none is left in the ordered part
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            large_left = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large_left = True
                    break
                nrmax += 1
            if large_left:
                continue

        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small *= 0.5
        erlarg = errsum

    # choose between the extrapolated result and the panel sum
    if abserr == _OFLOW:
        return _panel_sum(rlist, last), errsum
    if ier + ierro == 0:
        return result, abserr
    if ierro == 3:
        abserr += correc
    if result != 0.0 and area != 0.0:
        use_sum = abserr / abs(result) > errsum / abs(area)
    else:
        use_sum = abserr > errsum
    if use_sum:
        return _panel_sum(rlist, last), errsum
    # dqagse's closing divergence test sets only its error flag
    return result, abserr


def _panel_sum(rlist, last):
    total = 0.0
    for k in range(1, last + 1):
        total += rlist[k]
    return total


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """``dqpsrt``: keep iord[1..] ordered by descending error estimate
    after a bisection stored its halves at maxerr and last; return the
    new (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax here, then errmin from the bottom up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """``dqelg``: Wynn's epsilon algorithm on epstab[1..n], the sequence of
    area estimates.  Updates epstab and res3la in place and returns
    (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: converged
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1           # two elements too close: cut the table
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        if not abs(ss * e1) > 1e-4:
            n = i + i - 1           # irregular behaviour: cut the table
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error <= abserr:
            abserr = error
            result = res

    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
