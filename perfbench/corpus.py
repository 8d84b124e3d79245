"""The benchmark's own copy of its inputs.

Spec texts are copied from `benchmarks/*.spec` and reference loops from the
corpus quoted with those benchmarks, so that an edit to either place does
not silently change what the benchmark measures.  Every reference loop
maintains its invariant; that is the corpus's own claim, not something
computed by the program under test.
"""

SPECS = {
    "square": "vars a b\ninvariant a == b^2\nsize 3\n",
    "fmi1": "vars y x\ninvariant 2y == 3x(x - 1)\nsize 3\n",
    "fmi2": "vars z x y\ninvariant z == 2y && x == y^2\nsize 4\n",
    "fmi3": "vars y x z\ninvariant y == 3x z && x == 2(z - 1)\nsize 4\n",
    "sum1": "vars a b c\ninvariant 1 + 2a == c && 4b == (c - 1)^2\nsize 4\n",
    "intsqrt2": "vars a y r\nparams a0=a\ninvariant a0 + r == r^2 + 2y\nsize 4\n",
    "eucliddiv": "vars r q y\nparams x0=r y0=y\ninvariant x0 == y0 q + r\naux-one\n",
    "intcbrt": (
        "vars x s r\nparams a0=x\n"
        "invariant 1 + 4a0 + 6r^2 == 3r + 4r^3 + 4x && 1/4 + 3r^2 == s\nsize 4\n"
    ),
}

# (tier, instances): every instance has a known loop in its tier, so with a
# solver that answers "unknown" a sound search must end undecided.
SWEEPS = {
    "sweep-un": ("un", ["square", "fmi1", "fmi2"]),
    "sweep-fu": ("fu", ["fmi2", "eucliddiv", "intcbrt"]),
}

CUBE_INV = "c == n^3 && k == 3n^2 + 3n + 1 && m == 6n + 6"

# name -> (loop text, invariant text); each loop maintains its invariant.
REFERENCE_LOOPS = {
    "cubes-fixed": (
        "c, k, m, n = 0, 1, 6, 0\nwhile true\nc = c + k\nk = k + m\nm = m + 6\nn = n + 1\nend",
        CUBE_INV),
    "cubes-alt": (
        "c, k, m, n = 0, 1, 6, 0\nwhile true\nc = c + k\nk = k + 6n + 6\nm = m + 6\nn = n + 1\nend",
        CUBE_INV),
    "eucliddiv-1": (
        "r, q, y = x0, 0, y0\nwhile true\nr = r - q - y\nq = q + 1\ny = y - 1\nend",
        "x0 == y0*q + r"),
    "eucliddiv-2": (
        "r, q, y = x0 - 1/2 y0, 1/2, y0\nwhile true\nr = r - q - 1/2 y + 1/2\nq = q + 1/2\n"
        "y = y - 1\nend",
        "x0 == y0*q + r"),
    "square-1": ("a, b = 0, 0\nwhile true\na = a - 2b + 1\nb = b - 1\nend", "a == b^2"),
    "square-2": ("a, b = 1/16, -1/4\nwhile true\na = a + 2b + 1\nb = b + 1\nend", "a == b^2"),
    "sum1-1": (
        "a, b, c = 1/2, 1/4, 2\nwhile true\na = a - 1/2\nb = b - 1/2 c + 3/4\nc = c - 1\nend",
        "1 + 2a == c && 4b == (c - 1)^2"),
    "sum1-2": (
        "a, b, c = -5/8, 25/64, -1/4\nwhile true\na = a + 1\nb = b + c\nc = c + 2\nend",
        "1 + 2a == c && 4b == (c - 1)^2"),
    "intsqrt2-1": (
        "y, r = 1/2 a0, 0\nwhile true\ny = y + r - 1\nr = r - 1\nend",
        "a0 + r == r^2 + 2y"),
    "intsqrt2-2": (
        "y, r = 1/2 a0 - 5/32, -1/4\nwhile true\ny = y - r\nr = r + 1\nend",
        "a0 + r == r^2 + 2y"),
    "intcbrt": (
        "x, s, r = 35/64 + a0, 7/16, -1/4\nwhile true\nx = x - s\ns = s + 6r + 3\nr = r + 1\nend",
        "1 + 4a0 + 6r^2 == 3r + 4r^3 + 4x && 1/4 + 3r^2 == s"),
    "fmi1-1": ("y, x = 15/32, -1/4\nwhile true\ny = 3x + y\nx = x + 1\nend", "2y == 3x(x - 1)"),
    "fmi1-2": (
        "y, x = -3/8, 1/2\nwhile true\ny = y + (3/8)x - 21/128\nx = x + 1/8\nend",
        "2y == 3x(x - 1)"),
    "fmi2-1": (
        "z, x, y = 1/4, 1/64, 1/8\nwhile true\nz = z - 1\nx = x - y + 1/4\ny = y - 1/2\nend",
        "z == 2y && x == y^2"),
    "fmi2-2": (
        "z, x, y = 1, 1/4, 1/2\nwhile true\nz = 1/8 + z\nx = (1/8)y + x + 1/256\ny = y + 1/16\nend",
        "z == 2y && x == y^2"),
    "fmi3-1": (
        "y, x, z = 27/32, -9/4, -1/8\nwhile true\ny = (-1/4)x + y - 1/2 + (25/2)z\nx = x + 2\n"
        "z = 1 + z\nend",
        "y == 3xz && x == 2(z - 1)"),
    "fmi3-2": (
        "y, x, z = 9/2, -3, -1/2\nwhile true\ny = y + (1/2)x + 11/32 + (1/2)z\nx = x + 1/4\n"
        "z = 1/8 + z\nend",
        "y == 3xz && x == 2(z - 1)"),
    "fmi4-1": ("x, y = 1/8, -1/4\nwhile true\nx = x + 4y + 2\ny = y + 1\nend", "x == 2y^2"),
    "fmi4-2": (
        "x, y = 1/2, 1/2\nwhile true\nx = (1/2)y + x + 1/32\ny = y + 1/8\nend", "x == 2y^2"),
    "fmi5-1": (
        "y, x = -5/16, -1/4\nwhile true\ny = -10x + y - 5\nx = x + 1\nend", "y + 5x^2 == 0"),
    "fmi5-2": (
        "y, x = -5/4, 1/2\nwhile true\ny = y - (5/4)x - 5/64\nx = x + 1/8\nend", "y + 5x^2 == 0"),
}
