package decimal

// The widest DECIMAL(p) type of the paper's evaluation, implemented "the
// typical way" as a built-in integer: 128 bits for p = 38 decimal
// digits. A value carries an implicit scale (number of fractional
// decimal digits) fixed by the column type — exactly the fixed-point
// arithmetic of Section II-C, which is reproducible but not flexible
// enough for data of unknown or mixed magnitude.

// Dec38 is DECIMAL(38): up to 38 decimal digits in an Int128.
type Dec38 = Int128
