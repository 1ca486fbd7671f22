"""Cusp cross-sections, Dehn-filling homology, and the behaviour of the
polynomial invariants under filling.

The cross-section of a cusp is the triangulated surface whose triangles
are the tetrahedron corners at that ideal vertex and whose sides are the
face corners between them.  Its first homology is computed with the
same dual-spine machinery as the manifold's.  Each of its two basis
cycles is carried to the manifold once, crossing for each side the
manifold face containing it, with the coorientation sign, and is kept
in the manifold's kernel coordinates; every slope and dual slope is an
integer combination of the two.
"""

import math
import numbers

from .census_io import FACE_VERTICES, CensusError
from .homology import AbelianQuotient, H1Data, smith_normal_form
from .laurent import LaurentPoly, exact_div, sign_twist


class CuspData:
    """One ideal vertex: its corners, a homology basis (a, b) of its
    link torus, and the classes of a and b in the manifold's homology.

    basis holds a and b in the manifold's ``H1Data`` kernel coordinates,
    and periph_class their ``quot.class_coords`` (free part, torsion
    part).  The basis is the deterministic one induced by the link's
    Smith normal form.  Any basis of a torus has intersection number
    +-1; the sign is an internal convention (slope coordinates are only
    meaningful relative to this artifact's basis).
    """

    __slots__ = ("corners", "basis", "periph_class")

    def __init__(self, corners, basis, periph_class):
        self.corners = corners
        self.basis = basis
        self.periph_class = periph_class


def vertex_links(ts, coor, cycles, h1):
    """One CuspData per ideal vertex, in ``table.vertices`` order.
    Asserts each link is a torus.

    A link's ``H1Data`` has its triangles as cells, in corner order; as
    faces its sides, in order of their canonical keys (t, v, fs), the
    smaller of the side's two (tet, vertex, facet) names, each from its
    own triangle to the partner's; and as edges the link vertices
    (manifold edge ends), in corner-cycle order with end 0 before end 1,
    bounded by the fan of sides the corner cycle crosses, +1 leaving
    through a side's own triangle.  One pass over the facets files every
    side under its cusp and one pass over the corner cycles every fan."""
    table = ts.table
    home = {}           # (tet, vertex) -> (cusp, triangle)
    for index, corners in enumerate(table.vertices):
        for i, corner in enumerate(corners):
            home[corner] = (index, i)
    sides = [[] for _ in table.vertices]
    for t, row in enumerate(table.gluings):
        for fs, (t2, p) in enumerate(row):
            for v in FACE_VERTICES[fs]:
                key, partner = (t, v, fs), (t2, p[v], p[fs])
                if key < partner:
                    sides[home[(t, v)][0]].append((key, partner))
    side_of = {}        # side name -> (index in its cusp, sign)
    for cusp_sides in sides:
        cusp_sides.sort()
        for i, (key, partner) in enumerate(cusp_sides):
            side_of[key] = (i, 1)
            side_of[partner] = (i, -1)
    fans = [[] for _ in table.vertices]
    for cyc in cycles:
        t0 = cyc.corners[0][0]
        for end in (0, 1):
            fans[home[(t0, cyc.dirs[0][end])][0]].append(
                [side_of[(t, dirpair[end], exit_fs)]
                 for (t, _), dirpair, exit_fs in zip(cyc.corners, cyc.dirs,
                                                     cyc.exits)])
    cusps = []
    for index, corners in enumerate(table.vertices):
        cusp_sides = sides[index]
        assert len(fans[index]) - len(cusp_sides) + len(corners) == 0, \
            "cusp cross-section has nonzero Euler characteristic"
        link_h1 = H1Data(
            len(corners),
            [(home[key[:2]][1], home[partner[:2]][1])
             for key, partner in cusp_sides],
            fans[index])
        if link_h1.rank != 2 or link_h1.torsion:
            raise CensusError("cusp %d cross-section is not a torus" % index)
        basis = []
        for pos in link_h1.quot.free_positions:
            vec = [0] * len(table.faces)
            z = link_h1.w_position_representative(pos)
            for ((t, _, fs), _), x in zip(cusp_sides, z):
                fidx = table.face_index[(t, fs)]
                vec[fidx] += x if coor.below[fidx] == (t, fs) else -x
            basis.append(h1.cycle_kernel_coords(vec))
        cusps.append(CuspData(corners, tuple(basis), tuple(
            h1.quot.class_coords(y) for y in basis)))
    assert sum(len(c.corners) for c in cusps) == 4 * table.n_tet
    return cusps


class FillingSpec:
    """Slopes per filled cusp index, in that cusp's (a, b) basis, in
    increasing cusp index.  Each slope is a tuple or list (x, y);
    indices and coordinates must be integers other than bools; anything
    else raises CensusError."""

    __slots__ = ("slopes",)

    def __init__(self, slopes):
        pairs = {}
        for j, pair in slopes.items():
            x, y = (pair if isinstance(pair, (tuple, list)) and len(pair) == 2
                    else (None, None))
            if not all(isinstance(v, numbers.Integral)
                       and not isinstance(v, bool) for v in (j, x, y)):
                raise CensusError("slope %r on cusp %r is not a pair of "
                                  "integers" % (pair, j))
            pairs[j] = int(x), int(y)
        clean = {}
        for j, (x, y) in sorted(pairs.items()):
            if math.gcd(x, y) != 1:
                raise CensusError(
                    "slope %d/%d on cusp %d is not primitive" % (x, y, j))
            clean[j] = (x, y)
        self.slopes = clean


def _ascii_int(text, signed):
    """int(text) for ASCII digits, after one '+' or '-' when signed;
    ValueError for anything else, where int() would also take
    underscores, inner whitespace and non-ASCII digits."""
    digits = text[1:] if signed and text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


def parse_slopes(text):
    """Parse a slope list like "c0:1/2,c2:-3/1" into a FillingSpec.
    Each chunk is cJ:x/y, with J ASCII digits and x, y ASCII digits
    after an optional sign; whitespace around a chunk is ignored."""
    slopes = {}
    text = text.strip()
    if text:
        for chunk in text.split(","):
            try:
                cusp, frac = chunk.strip().split(":")
                if not cusp.startswith("c"):
                    raise ValueError(chunk)
                x, y = frac.split("/")
                j = _ascii_int(cusp[1:], signed=False)
                pair = (_ascii_int(x, signed=True),
                        _ascii_int(y, signed=True))
            except ValueError:
                raise CensusError("malformed slope %r (want cJ:x/y)" % chunk)
            if j in slopes:
                raise CensusError("cusp %d filled twice" % j)
            slopes[j] = pair
    return FillingSpec(slopes)


class FilledHomology:
    """Homology of the Dehn filling N: b1 of the base, n_quot (a
    quotient of the base's ``H1Data`` kernel coordinates) and its rank
    s, the induced map i_star on free homology (None when s = 0), the
    core class in N's free homology of each filled cusp, as a tuple
    keyed by the cusp's index in increasing order, and sigma_N (None
    when it does not exist)."""

    __slots__ = ("b1", "boundary_empty", "n_quot", "s", "i_star", "cores",
                 "sigma_N")

    def __init__(self, b1, boundary_empty, n_quot, i_star, cores, sigma_N):
        self.b1 = b1
        self.boundary_empty = boundary_empty
        self.n_quot = n_quot
        self.s = n_quot.rank
        self.i_star = i_star
        self.cores = cores
        self.sigma_N = sigma_N


def filled_homology(h1, cusps, spec, eo):
    """H_1 data of the filled manifold.

    The quotient is taken in the kernel-coordinate ambient Z^q: the
    base's diagonalised relations plus one slope class x*a + y*b per
    filled cusp, an integer combination of the cusp's basis in kernel
    coordinates.  Each core's class is that of a dual slope -v*a + u*b,
    one with intersection determinant 1 against the filled slope.

    sigma_N is read off the base's edge-orientation data eo: omega is
    defined on H_1(N) when every filled slope is orientation-preserving
    (omega = 0), and then ``sign_vector`` reads sigma_N off n_quot.  The
    base's torsion maps into N's, so a sigma_N implies the base's sigma.
    """
    filled = list(spec.slopes)
    for j in filled:
        if not 0 <= j < len(cusps):
            raise CensusError("no cusp with index %d" % j)
    quot = h1.quot
    # base relations, rebuilt from the diagonalised quotient
    columns = [[order * x for x in quot.generator_lift(p)]
               for p, order in enumerate(quot.orders) if order]
    # each filled slope (x, y) and a dual slope (-v, u):
    # det [[x, -v], [y, u]] = x*u + v*y = 1
    slopes, duals = [], []
    for j in filled:
        x, y = spec.slopes[j]
        u = pow(x, -1, abs(y)) if y else x
        v = (1 - x * u) // y if y else 0
        za, zb = cusps[j].basis
        slopes.append([x * a + y * b for a, b in zip(za, zb)])
        duals.append([-v * a + u * b for a, b in zip(za, zb)])
    n_quot = AbelianQuotient(h1.q, columns + slopes)
    s = n_quot.rank
    i_star = None
    if s:
        i_star = [list(row) for row in zip(*(
            n_quot.class_free(quot.generator_lift(pos))
            for pos in quot.free_positions))]
        snf = smith_normal_form(i_star, ncols=quot.rank)
        assert snf.rank == s and all(d == 1 for d in snf.diag[:s]), \
            "induced map on free homology is not surjective"
    # core-curve classes: any dual slope gives the same class, as two
    # of them differ by a multiple of the filled slope, which dies in N
    cores = {j: n_quot.class_free(dual) for j, dual in zip(filled, duals)}
    sigma_N = None if any(eo.omega(y) for y in slopes) \
        else eo.sign_vector(n_quot)
    return FilledHomology(h1.rank, len(filled) == len(cusps), n_quot,
                          i_star, cores, sigma_N)


def predict_filled_alexander(i_theta, fh):
    """Solve the filling identity for the filled manifold's Alexander
    polynomial (up to a unit), given the taut polynomial specialised by
    ``fh.i_star`` (in ``fh.s`` variables); a polynomial in another ring
    raises ValueError.

    The specialised taut polynomial equals the sign-twisted Delta_N
    times a product of core-class factors, divided by one or two
    (h - sigma_N(h)) factors in the rank-one-target cases.  The identity
    needs sigma_N and nontrivial core classes: without them the result
    is None.  Otherwise it is (case, delta_N, equality_expected), where
    delta_N is None when the exact division fails (a violated
    hypothesis), and equality_expected tells whether the specialised
    taut polynomial equals Delta_N up to variable signs: every core
    class generates, and nothing is filled, or one cusp with boundary
    left, or the filling is closed with two cusps filled or b1 = 1.
    """
    s = fh.s
    if i_theta.nvars != s:
        raise ValueError("i_theta has %d variables, expected s = %d"
                         % (i_theta.nvars, s))
    cores = fh.cores.values()
    if fh.sigma_N is None or not all(map(any, cores)):
        return None
    if fh.b1 >= 2 and s >= 2:
        case, e = "I(a)", 0
    elif fh.b1 >= 2:
        case, e = ("I(b)-closed", 2) if fh.boundary_empty \
            else ("I(b)-boundary", 1)
    else:
        case, e = ("II(b)", 1) if fh.boundary_empty else ("II(a)", 0)
    h_factor = LaurentPoly(s, {
        tuple(1 if i == 0 else 0 for i in range(s)): 1,
        (0,) * s: -fh.sigma_N[0]})
    numer = i_theta * h_factor ** e
    denom = LaurentPoly.one(s)
    for ell in cores:
        sig_ell = math.prod(sg for sg, x in zip(fh.sigma_N, ell) if x % 2)
        denom = denom * LaurentPoly(s, {ell: 1, (0,) * s: -sig_ell})
    quotient = exact_div(numer, denom)
    # undo the sign twist: Delta_N(h) = quotient(sigma_N(h) * h)
    delta_N = None if quotient is None else sign_twist(quotient, fh.sigma_N)
    equality_expected = all(ell in ((1,), (-1,)) for ell in cores) and (
        not cores or (len(cores) == 1 and not fh.boundary_empty)
        or (fh.boundary_empty and (len(cores) == 2 or fh.b1 == 1)))
    return case, delta_N, equality_expected

