//! Decimal text for JSON numbers without a `format!` per number.
//!
//! [`write_f64`] prints the shortest decimal that parses back to the
//! same `f64`, in the plain notation `format!("{x}")` uses (never an
//! exponent, `-0` for negative zero). The digits come from Ryu (Adams,
//! "Ryū: Fast Float-to-String Conversion", PLDI 2018): one 64×128-bit
//! multiply against a power-of-5 table entry gives the decimal interval
//! of values that round to `x`, and digits are removed while the
//! interval still holds a shorter number. Ryu breaks an exact decimal
//! tie to even; this writer rounds it up, as `format!` does, so the two
//! agree byte for byte.
//!
//! The two 125-bit power-of-5 tables are computed at compile time from
//! exact multi-limb powers of five.

/// Significand bits of an `f64`, without the implicit leading one.
const MANTISSA_BITS: u32 = 52;
/// The exponent bias of an `f64`.
const BIAS: i32 = 1023;
/// Bits kept of each table entry.
const POW5_BITS: i32 = 125;
/// Entries of [`POW5_INV_SPLIT`]: one per decimal exponent a
/// non-negative binary exponent scales by (the largest is 290).
const POW5_INV_LEN: usize = 291;
/// Entries of [`POW5_SPLIT`]: one per power of five a negative binary
/// exponent scales by (the largest is 325).
const POW5_LEN: usize = 326;

/// `⌊2^(bitlen(5^q) − 1 + 125) / 5^q⌋ + 1`: `5^-q` scaled to 125 bits.
static POW5_INV_SPLIT: [u128; POW5_INV_LEN] = pow5_table(true);
/// `5^i` cut to its top 125 bits.
static POW5_SPLIT: [u128; POW5_LEN] = pow5_table(false);

/// "00" "01" … "99": integers print two digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `m` in decimal.
pub(crate) fn write_u64(m: u64, out: &mut String) {
    let mut text = Text::<20>::new();
    text.digits(m);
    out.push_str(text.as_str());
}

/// Bytes of the longest text [`write_f64`] writes: `-0.`, 323 zeros and
/// 17 digits (the smallest negative subnormal).
const LONGEST: usize = 343;

/// Appends a finite `x` exactly as `format!("{x}")` does: sign, digits
/// and point are built in a stack buffer and pushed as one text.
pub(super) fn write_f64(x: f64, out: &mut String) {
    let bits = x.to_bits();
    let negative = bits >> 63 != 0;
    let (digits, exp) = if bits << 1 == 0 {
        (0, 0)
    } else {
        shortest(bits)
    };
    // A sign, at most 17 digits and a point, or `0.` and up to 17
    // places: at most 20 bytes, so three words hold nearly every
    // non-integral number a response carries (from 10^-17 on).
    if (-17..0).contains(&exp) {
        write_decimal::<24>(negative, digits, exp, out);
    } else {
        write_decimal::<LONGEST>(negative, digits, exp, out);
    }
}

/// Appends `±digits · 10^exp` in plain notation, built in a text of
/// `N` bytes, which must hold it.
#[inline(always)]
fn write_decimal<const N: usize>(negative: bool, digits: u64, exp: i32, out: &mut String) {
    let mut text = Text::<N>::new();
    match usize::try_from(exp) {
        Ok(zeros) => {
            text.zeros(zeros);
            text.digits(digits);
        }
        Err(_) => {
            let units = text.fraction(digits, exp.unsigned_abs() as usize);
            text.digits(units);
        }
    }
    if negative {
        text.prepend(b"-");
    }
    out.push_str(text.as_str());
}

/// A number's text, built right to left at the end of a stack buffer
/// that only ever holds ASCII: it starts as `0`s, and receives only
/// bytes of [`DIGIT_PAIRS`], `.` and `-`.
struct Text<const N: usize> {
    bytes: [u8; N],
    /// Where the text starts; it runs to the end of `bytes`.
    start: usize,
}

impl<const N: usize> Text<N> {
    fn new() -> Self {
        Text {
            bytes: [b'0'; N],
            start: N,
        }
    }

    /// Prepends `m` in decimal.
    fn digits(&mut self, mut m: u64) {
        while m >= 100 {
            self.pair(m % 100);
            m /= 100;
        }
        if m >= 10 {
            self.pair(m);
        } else {
            self.digit(m);
        }
    }

    /// Prepends the last `places` digits of `m`, zero-padded, and a
    /// point before them, and returns the digits left of the point.
    fn fraction(&mut self, mut m: u64, mut places: usize) -> u64 {
        while places >= 2 && m != 0 {
            self.pair(m % 100);
            m /= 100;
            places -= 2;
        }
        if places == 1 && m != 0 {
            self.digit(m % 10);
            m /= 10;
            places = 0;
        }
        // Once `m` runs out, the rest are the buffer's own zeros.
        self.zeros(places);
        self.prepend(b".");
        m
    }

    /// Prepends the two digits of `m < 100`.
    fn pair(&mut self, m: u64) {
        let pair = m as usize * 2;
        self.prepend(&DIGIT_PAIRS[pair..pair + 2]);
    }

    /// Prepends the digit `m < 10`.
    fn digit(&mut self, m: u64) {
        let pair = m as usize * 2;
        self.prepend(&DIGIT_PAIRS[pair + 1..pair + 2]);
    }

    /// Prepends `count` zeros: the buffer's own bytes.
    fn zeros(&mut self, count: usize) {
        self.start -= count;
    }

    /// Prepends ASCII `bytes`: digits, `.` or `-`.
    fn prepend(&mut self, bytes: &[u8]) {
        let start = self.start - bytes.len();
        self.bytes[start..self.start].copy_from_slice(bytes);
        self.start = start;
    }

    fn as_str(&self) -> &str {
        // SAFETY: `bytes` is all ASCII: it starts as `0`s and only
        // receives bytes copied from `DIGIT_PAIRS`, `.` and `-`.
        // (Validating instead costs about a quarter of the writer's time
        // per number.)
        unsafe { std::str::from_utf8_unchecked(&self.bytes[self.start..]) }
    }
}

/// The significand `m2`, binary exponent `e2` and biased exponent of a
/// finite `f64`'s bits: `|x| = 4·m2 · 2^e2`, so the bounds of its
/// rounding interval, `4·m2 ± 2` (or `− 1` below a power of two), are
/// integers at the same exponent.
fn decompose(bits: u64) -> (u64, i32, u32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    let (m2, e2) = if ieee_exponent == 0 {
        (ieee_mantissa, 1 - BIAS - MANTISSA_BITS as i32 - 2)
    } else {
        (
            ieee_mantissa | (1 << MANTISSA_BITS),
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
        )
    };
    (m2, e2, ieee_exponent)
}

/// How [`shortest`] scales a binary exponent to a decimal one: the
/// table and entry it multiplies by, the right shift after the
/// multiply, and the decimal exponent `q` removed (`e10` of the result).
#[derive(Debug, Clone, Copy)]
struct Scale {
    q: u32,
    e10: i32,
    inverse: bool,
    index: usize,
    shift: u32,
}

impl Scale {
    fn of(e2: i32) -> Scale {
        if e2 >= 0 {
            let q = log10_pow2(e2) - u32::from(e2 > 3);
            let k = POW5_BITS + pow5_bits(q as i32) - 1;
            Scale {
                q,
                e10: q as i32,
                inverse: true,
                index: q as usize,
                shift: (-e2 + q as i32 + k) as u32,
            }
        } else {
            let q = log10_pow5(-e2) - u32::from(-e2 > 1);
            let i = -e2 - q as i32;
            let k = pow5_bits(i) - POW5_BITS;
            Scale {
                q,
                e10: q as i32 + e2,
                inverse: false,
                index: i as usize,
                shift: (q as i32 - k) as u32,
            }
        }
    }

    fn entry(self) -> u128 {
        if self.inverse {
            // analyze: allow(panic_path): in range for every biased exponent (tests::every_biased_exponent_scales_inside_the_tables)
            POW5_INV_SPLIT[self.index]
        } else {
            // analyze: allow(panic_path): in range for every biased exponent (tests::every_biased_exponent_scales_inside_the_tables)
            POW5_SPLIT[self.index]
        }
    }
}

/// The shortest `(digits, exponent)` with `digits · 10^exponent`
/// parsing back to the nonzero finite `f64` with these bits (sign
/// ignored), nearest to it, exact ties rounded up.
fn shortest(bits: u64) -> (u64, i32) {
    let (m2, e2, ieee_exponent) = decompose(bits);
    // An even significand's rounding interval includes its bounds.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // 0 only for a power of two above the smallest exponents: its lower
    // neighbour is half as far away as its upper one.
    let mm_shift = u64::from(bits & ((1 << MANTISSA_BITS) - 1) != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    let scale = Scale::of(e2);
    let entry = scale.entry();
    let mut vr = mul_shift(mv, entry, scale.shift);
    let mut vp = mul_shift(mp, entry, scale.shift);
    let mut vm = mul_shift(mm, entry, scale.shift);
    // Whether the dropped part of vm is exactly zero. (Ryu also tracks
    // this for vr, only to round exact ties to even.)
    let mut vm_is_trailing_zeros = false;
    let q = scale.q;
    if e2 >= 0 {
        // At most one of mp, mv, mm is a multiple of 5; if it is mv,
        // neither bound is exact.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mm, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mp, q));
            }
        }
    } else if q <= 1 {
        // mv has two trailing zero bits, mp one and mm one iff mm_shift.
        if accept_bounds {
            vm_is_trailing_zeros = mm_shift == 1;
        } else {
            vp -= 1;
        }
    }

    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // Rare: the lower bound is itself a short decimal.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_is_trailing_zeros) || last_removed_digit >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, scale.e10 + removed)
}

/// `⌊m · entry / 2^shift⌋` for a 125-bit `entry` and `shift ≥ 64`.
fn mul_shift(m: u64, entry: u128, shift: u32) -> u64 {
    let low = u128::from(m) * (entry as u64 as u128);
    let high = u128::from(m) * (entry >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) && count < p {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `⌈log2(5^e)⌉` (1 for `e = 0`), for `0 ≤ e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10(2^e)⌋`, for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10(5^e)⌋`, for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

// ---- compile-time tables ----------------------------------------------
//
// Plain multi-limb arithmetic on little-endian `u64` limbs: 5^325 needs
// 755 bits, and a division remainder stays below twice the divisor.

const LIMBS: usize = 12;
type Big = [u64; LIMBS];

/// Entry `i` of either table: `5^i` cut to 125 bits, or (`inverse`)
/// `5^-i` scaled to 125 bits and rounded up.
const fn pow5_table<const N: usize>(inverse: bool) -> [u128; N] {
    let mut table = [0u128; N];
    let mut pow5: Big = [0; LIMBS];
    pow5[0] = 1;
    let mut i = 0;
    while i < N {
        let len = bit_len(&pow5);
        table[i] = if inverse {
            reciprocal(&pow5, len)
        } else {
            top_bits(&pow5, len)
        };
        pow5 = times5(pow5);
        i += 1;
    }
    table
}

const fn times5(mut x: Big) -> Big {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let wide = x[i] as u128 * 5 + carry;
        x[i] = wide as u64;
        carry = wide >> 64;
        i += 1;
    }
    x
}

const fn bit_len(x: &Big) -> u32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return 64 * i as u32 + 64 - x[i].leading_zeros();
        }
    }
    0
}

/// The top 125 bits of `x`, which is `len` bits long.
const fn top_bits(x: &Big, len: u32) -> u128 {
    let low = x[0] as u128 | (x[1] as u128) << 64;
    if len <= POW5_BITS as u32 {
        return low << (POW5_BITS as u32 - len);
    }
    let shift = len - POW5_BITS as u32;
    let word = (shift / 64) as usize;
    let bit = shift % 64;
    let mid = x[word] as u128 | (x[word + 1] as u128) << 64;
    if bit == 0 {
        mid
    } else {
        (mid >> bit) | (x[word + 2] as u128) << (128 - bit)
    }
}

/// `⌊2^(len − 1 + 125) / d⌋ + 1` for `d` of `len` bits, by binary long
/// division: the remainder starts at `2^(len − 1)`, one quotient bit per
/// doubling.
const fn reciprocal(d: &Big, len: u32) -> u128 {
    let mut rem: Big = [0; LIMBS];
    rem[((len - 1) / 64) as usize] = 1 << ((len - 1) % 64);
    let mut quotient = 0u128;
    let mut step = 0;
    loop {
        quotient <<= 1;
        if !less(&rem, d) {
            rem = sub(rem, d);
            quotient |= 1;
        }
        if step == POW5_BITS {
            return quotient + 1;
        }
        rem = shl1(rem);
        step += 1;
    }
}

const fn less(a: &Big, b: &Big) -> bool {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

const fn sub(mut a: Big, b: &Big) -> Big {
    let mut borrow = false;
    let mut i = 0;
    while i < LIMBS {
        let (d, b1) = a[i].overflowing_sub(b[i]);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        a[i] = d;
        borrow = b1 || b2;
        i += 1;
    }
    a
}

const fn shl1(mut a: Big) -> Big {
    let mut i = LIMBS;
    while i > 1 {
        i -= 1;
        a[i] = a[i] << 1 | a[i - 1] >> 63;
    }
    a[0] <<= 1;
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{format_number, write_number, EXACT_INTEGERS};

    /// The inputs on which a writer differs from its reference:
    /// `write_number` from the `format!` writer it replaced, and
    /// `write_f64` (on finite inputs) from `format!("{x}")`.
    fn mismatches(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
        let mut out = String::new();
        let mut differs = |x: f64| {
            out.clear();
            write_number(x, &mut out);
            if out != format_number(x) {
                return true;
            }
            out.clear();
            x.is_finite() && {
                write_f64(x, &mut out);
                out != format!("{x}")
            }
        };
        values.into_iter().filter(|&x| differs(x)).collect()
    }

    fn assert_none(mismatched: Vec<f64>) {
        assert!(
            mismatched.is_empty(),
            "{} mismatches, first {:?}",
            mismatched.len(),
            &mismatched[..mismatched.len().min(8)]
        );
    }

    /// SplitMix64 bit patterns from a fixed seed.
    fn random_bits(seed: u64) -> impl Iterator<Item = u64> {
        let mut state = seed;
        std::iter::repeat_with(move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    fn with_negatives(values: Vec<f64>) -> Vec<f64> {
        values.iter().flat_map(|&x| [x, -x]).collect()
    }

    #[test]
    fn random_bit_patterns_print_as_format_does() {
        // Every exponent, NaN and ±inf included (about 1 in 2048).
        assert_none(mismatches(random_bits(1).take(100_000).map(f64::from_bits)));
    }

    #[test]
    #[ignore = "3·10⁷ values: about 20 s in release, run by CI"]
    fn thirty_million_random_values_print_as_format_does() {
        assert_none(mismatches(
            random_bits(2).take(30_000_000).map(f64::from_bits),
        ));
    }

    #[test]
    fn powers_of_two_and_their_predecessors_print_as_format_does() {
        let mut values = Vec::new();
        for e in -1074..=1023 {
            let bits = if e >= -1022 {
                ((e + 1023) as u64) << MANTISSA_BITS
            } else {
                1 << (e + 1074)
            };
            values.push(f64::from_bits(bits));
            values.push(f64::from_bits(bits - 1));
        }
        assert_eq!(values.len(), 2 * 2098);
        assert_none(mismatches(with_negatives(values)));
    }

    #[test]
    fn subnormals_and_the_integer_boundary_print_as_format_does() {
        let top = 1u64 << MANTISSA_BITS;
        let subnormal_bits = (1..=2000)
            .chain(top - 2000..top)
            .chain(random_bits(3).take(10_000).map(|b| b % top));
        let mut values: Vec<f64> = subnormal_bits.map(f64::from_bits).collect();
        // Ulp-neighbours of 2^53 and 2^52 (the integer path ends at 2^53,
        // and below 2^52 halves exist), every integer up to 1000, and
        // powers of ten and their neighbours.
        for boundary in [EXACT_INTEGERS, EXACT_INTEGERS / 2.0] {
            let bits = boundary.to_bits();
            values.extend((bits - 64..=bits + 64).map(f64::from_bits));
        }
        values.extend((0..=1000).map(f64::from));
        let mut power = 1.0;
        for _ in 0..=22 {
            values.extend([power - 1.0, power, power + 1.0, power + 0.5, 1.0 / power]);
            power *= 10.0;
        }
        assert_none(mismatches(with_negatives(values)));
        // The last integer, the first float-path integer, the smallest
        // subnormal.
        let mut out = String::new();
        for x in [EXACT_INTEGERS - 1.0, -EXACT_INTEGERS, f64::from_bits(1)] {
            write_number(x, &mut out);
            out.push(' ');
        }
        let tiny = format!("0.{}5", "0".repeat(323));
        assert_eq!(out, format!("9007199254740991 -9007199254740992 {tiny} "));
    }

    #[test]
    fn integers_print_as_format_does() {
        // Every digit count on both sides of each eight-digit word.
        let mut values: Vec<u64> = vec![0, u64::MAX];
        let mut power = 1u64;
        for _ in 0..20 {
            values.extend([power - 1, power, power + 1, power.wrapping_mul(7) / 3]);
            power = power.wrapping_mul(10);
        }
        values.extend(random_bits(5).take(100_000).map(|b| b >> (b % 64)));
        let mut out = String::new();
        for m in values {
            out.clear();
            write_u64(m, &mut out);
            assert_eq!(out, m.to_string());
        }
    }

    #[test]
    fn exact_ties_round_up_as_format_does() {
        // In [2^50, 2^51) the spacing is 0.25, so k + 0.25 and k + 0.75
        // need 17 digits and sit exactly halfway between two of them.
        // Ryu's round-half-to-even would print …027.2 here.
        let mut out = String::new();
        write_f64(2181495296738027.0 + 0.25, &mut out);
        assert_eq!(out, "2181495296738027.3");
        let ties = random_bits(4).take(10_000).flat_map(|b| {
            let k = ((1u64 << 50) + b % (1 << 50)) as f64;
            [k + 0.25, k + 0.75]
        });
        assert_none(mismatches(with_negatives(ties.collect())));
    }

    #[test]
    fn zeros_and_non_finite_values() {
        let mut out = String::new();
        for x in [0.0, -0.0] {
            write_f64(x, &mut out);
            out.push(' ');
            write_number(x, &mut out);
            out.push(' ');
        }
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            write_number(x, &mut out);
            out.push(' ');
        }
        assert_eq!(out, "0 0 -0 0 null null null ");
        assert_none(mismatches([
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ]));
    }

    #[test]
    fn every_biased_exponent_scales_inside_the_tables() {
        // `Scale::of` depends only on the exponent, so walking the 2047
        // finite biased exponents covers every table read and shift
        // `shortest` can make.
        let (mut top_inverse, mut top_forward) = (0, 0);
        for biased in 0..=2046u64 {
            let (_, e2, _) = decompose(biased << MANTISSA_BITS);
            let scale = Scale::of(e2);
            let (len, top) = if scale.inverse {
                (POW5_INV_LEN, &mut top_inverse)
            } else {
                (POW5_LEN, &mut top_forward)
            };
            assert!(scale.index < len, "exponent {biased}: {scale:?}");
            *top = scale.index.max(*top);
            // `mul_shift` shifts a u128 right by `shift − 64`.
            assert!(
                (64..192).contains(&scale.shift),
                "exponent {biased}: {scale:?}"
            );
        }
        // Both tables are as long as they need to be, and no longer.
        assert_eq!(top_inverse, POW5_INV_LEN - 1);
        assert_eq!(top_forward, POW5_LEN - 1);
    }
}
