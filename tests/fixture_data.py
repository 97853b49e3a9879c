"""Frozen worked-example data shared by the test modules.

The tests re-derive each object here from the others (twists from
matrices, friezes from twists, duals from friezes), so a transcription
slip in any one of them fails loudly.
"""
from jugglerfrieze import JugglingFunction, Matrix, PeriodicFrieze, parse_siteswap

UNIFORM_8_3 = JugglingFunction.uniform(8, 3)
UNIFORM_8_5 = JugglingFunction.uniform(8, 5)
UNIFORM_8_6 = JugglingFunction.uniform(8, 6)
UNIFORM_8_2 = JugglingFunction.uniform(8, 2)

PI_53635514 = parse_siteswap("53635514")
PI_23345357 = parse_siteswap("23345357")

# 3x8, every three cyclically consecutive columns have determinant 1
CONSEC_3x8 = Matrix([
    [1, 11, 4, 6, 3, 1, 0, 0],
    [0, 1, 2, 7, 5, 3, 1, 0],
    [0, 0, 1, 4, 3, 2, 1, 1],
])

TWIST_3x8 = Matrix([
    [1, 1, 1, 1, 1, 1, 0, 0],
    [-11, -10, -6, -3, -1, 0, 1, 0],
    [18, 16, 9, 4, 1, 0, 0, 1],
])

PRODUCT_3x8 = Matrix([
    [1, 0, 0, 1, 2, 4, 7, 18],
    [1, 1, 0, 0, 1, 3, 6, 16],
    [1, 5, 1, 0, 0, 1, 3, 9],
    [1, 8, 2, 1, 0, 0, 1, 4],
    [1, 10, 3, 3, 1, 0, 0, 1],
    [1, 11, 4, 6, 3, 1, 0, 0],
    [0, 1, 2, 7, 5, 3, 1, 0],
    [0, 0, 1, 4, 3, 2, 1, 1],
])

# the classical height-5 frieze produced by CONSEC_3x8, columns read
# off its unitriangular matrix form (column b holds rows b..b+8)
SL3_H5 = PeriodicFrieze(UNIFORM_8_5, [
    [1, 3, 6, 7, 4, 1, 0, 0, 0],
    [1, 3, 5, 3, 2, 1, 0, 0, 0],
    [1, 3, 2, 4, 3, 1, 0, 0, 0],
    [1, 1, 7, 6, 3, 1, 0, 0, 0],
    [1, 18, 16, 9, 4, 1, 0, 0, 0],
    [1, 1, 1, 1, 1, 1, 0, 0, 0],
    [1, 5, 8, 10, 11, 1, 0, 0, 0],
    [1, 2, 3, 4, 2, 1, 0, 0, 0],
])

# its printed 8-truncated dual, a height-3 strip: second row equals the
# second row of SL3_H5, third row as printed
SL3_H5_DUAL_ROW2 = (3, 3, 3, 1, 18, 1, 5, 2)
SL3_H5_DUAL_ROW3 = (3, 3, 4, 1, 11, 2, 4, 2)
SL3_H5_DUAL = PeriodicFrieze(UNIFORM_8_3, [
    [1, 3, 3, 1, 0, 0, 0, 0, 0],
    [1, 3, 4, 1, 0, 0, 0, 0, 0],
    [1, 3, 1, 1, 0, 0, 0, 0, 0],
    [1, 1, 11, 1, 0, 0, 0, 0, 0],
    [1, 18, 2, 1, 0, 0, 0, 0, 0],
    [1, 1, 4, 1, 0, 0, 0, 0, 0],
    [1, 5, 2, 1, 0, 0, 0, 0, 0],
    [1, 2, 3, 1, 0, 0, 0, 0, 0],
])

# two finitely supported solutions of SL3_H5 x = 0, one period each;
# the tests re-derive both from the recurrence itself
SL3_H5_SOLUTION_1 = (1, -3, 3, -1, 0, 0, 0, 0)   # window at columns 1..8
SL3_H5_SOLUTION_2 = (0, 1, -3, 4, -1, 0, 0, 0)

# the classical height-6 strip with 2x2 diamonds of determinant 1
_R2 = (3, 2, 2, 1, 4, 3, 1, 2)
_R3 = (5, 3, 1, 3, 11, 2, 1, 5)
_R4 = (7, 1, 2, 8, 7, 1, 2, 8)
_R5 = (2, 1, 5, 5, 3, 1, 3, 11)
_R6 = (1, 2, 3, 2, 2, 1, 4, 3)
SL2_H6 = PeriodicFrieze(UNIFORM_8_6, [
    [1, _R2[b], _R3[b], _R4[b], _R5[b], _R6[b], 1, 0, 0] for b in range(8)
])

# 4x8 matrix adapted to throws 2,3,3,4,5,3,5,7
UNIMOD_4x8 = Matrix([
    [1, 0, -1, 0, 1, 2, 0, -3],
    [0, 1, 2, 0, -1, -1, 0, 1],
    [0, 0, 0, 1, 2, 1, 0, -1],
    [0, 0, 0, 0, 0, 0, 1, 1],
])

NECKLACE_23345357 = (
    (1, 2, 4, 7), (2, 3, 4, 7), (3, 4, 5, 7), (4, 5, 6, 7),
    (5, 6, 7, 8), (2, 6, 7, 8), (1, 2, 7, 8), (1, 2, 4, 8),
)

TWIST_4x8 = Matrix([
    [1, 2, 1, 1, 0, -1, 0, 0],
    [0, 1, 1, 3, 1, 0, 0, 0],
    [0, 0, 0, 1, 1, 3, 1, 0],
    [0, 0, 0, 0, 0, 0, 1, 1],
])

PRODUCT_4x8 = Matrix([
    [1, 0, -1, 0, 1, 2, 0, -3],
    [2, 1, 0, 0, 1, 3, 0, -5],
    [1, 1, 1, 0, 0, 1, 0, -2],
    [1, 3, 5, 1, 0, 0, 0, -1],
    [0, 1, 2, 1, 1, 0, 0, 0],
    [-1, 0, 1, 3, 5, 1, 0, 0],
    [0, 0, 0, 1, 2, 1, 1, 0],
    [0, 0, 0, 0, 0, 0, 1, 1],
])

# the frieze of UNIMOD_4x8: shape 53635514, boundary signs included
JUG_FRIEZE = PeriodicFrieze(PI_53635514, [
    [1, 2, 1, 1, 0, -1, 0, 0, 0],
    [1, 1, 3, 1, 0, 0, 0, 0, 0],
    [1, 5, 2, 1, 0, 0, 1, 0, 0],
    [1, 1, 3, 1, 0, 0, 0, 0, 0],
    [1, 5, 2, 0, -1, -1, 0, 0, 0],
    [1, 1, 0, -2, -3, -1, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0, 0],
    [1, 3, 5, 2, 1, 0, 0, 0, 0],
])

# its dual, shape 23345357
JUG_FRIEZE_DUAL = PeriodicFrieze(PI_23345357, [
    [1, 2, 1, 0, 0, 0, 0, 0, 0],
    [1, 1, 2, 1, 0, 0, 0, 0, 0],
    [1, 5, 3, 1, 0, 0, 0, 0, 0],
    [1, 1, 2, 1, 1, 0, 0, 0, 0],
    [1, 5, 3, 3, 0, -1, 0, 0, 0],
    [1, 1, 1, 1, 0, 0, 0, 0, 0],
    [1, 1, 3, 1, 0, -1, 0, 0, 0],
    [1, 3, 1, 0, -1, 0, 0, -1, 0],
])

# printed kernel basis of UNIMOD_4x8 (reduced row echelon back
# substitution), its positive complement, and the inverse twist of the
# complement
KERNEL_4x8 = Matrix([
    [1, -2, 1, 0, 0, 0, 0, 0],
    [-1, 1, 0, -2, 1, 0, 0, 0],
    [-2, 1, 0, -1, 0, 1, 0, 0],
    [3, -1, 0, 1, 0, 0, -1, 1],
])

COMPLEMENT_4x8 = Matrix([
    [1, 2, 1, 0, 0, 0, 0, 0],
    [-1, -1, 0, 2, 1, 0, 0, 0],
    [2, 1, 0, -1, 0, 1, 0, 0],
    [-3, -1, 0, 1, 0, 0, 1, 1],
])

INVERSE_TWIST_4x8 = Matrix([
    [1, 1, 1, 0, 0, 0, 0, 0],
    [0, 1, 3, 1, 1, 0, 0, 0],
    [0, 0, 1, 2, 5, 1, 0, 0],
    [0, 0, 0, 1, 3, 1, 1, 1],
])

PRODUCT_DUAL_8x8 = Matrix([
    [1, 0, 0, 0, 0, -1, -3, -3],
    [2, 1, 0, 0, 1, 0, -1, -1],
    [1, 1, 1, 0, 0, 0, 0, 0],
    [0, 2, 5, 1, 0, 0, 1, 1],
    [0, 1, 3, 1, 1, 0, 0, 0],
    [0, 0, 1, 2, 5, 1, 0, 0],
    [0, 0, 0, 1, 3, 1, 1, 1],
    [0, 0, 0, 1, 3, 1, 1, 1],
])

# small shapes with loops or coloops and their (rigid) matrices
PI_003 = parse_siteswap("003")
PI_330 = parse_siteswap("330")
MATRIX_003 = Matrix([[0, 0, 1]])
PI_4400 = parse_siteswap("4400")
MATRIX_4400 = Matrix([[1, 0, 0, 0], [0, 1, 0, 0]])
PI_4130 = parse_siteswap("4130")
MATRIX_4130 = Matrix([[1, 0, 0, 0], [0, 1, 1, 0]])

# identity pattern: three loops, the frieze is a diagonal of ones
IDENTITY_3 = parse_siteswap("000")
IDENTITY_FRIEZE_3 = PeriodicFrieze(IDENTITY_3, [[1, 0, 0, 0]] * 3)
# its matrix has no rows: no ball is ever in the air
MATRIX_000 = Matrix([], cols=3)
