//! Tracked-number ("tnum") arithmetic: the known-bits abstract domain used by
//! the verifier's register state, modeled after the kernel's `tnum.c`.
//!
//! A tnum represents a set of concrete 64-bit values with a pair
//! `(value, mask)`: bits set in `mask` are unknown, bits clear in `mask` are
//! known and equal to the corresponding bit of `value`. The invariant
//! `value & mask == 0` always holds (a known bit cannot also be unknown).

/// A tracked number: partially-known 64-bit value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tnum {
    /// Known bit values. Only meaningful where `mask` is 0.
    pub value: u64,
    /// Unknown-bit mask: set bits are unknown.
    pub mask: u64,
}

impl Tnum {
    /// A fully known constant.
    pub const fn constant(v: u64) -> Self {
        Tnum { value: v, mask: 0 }
    }

    /// A fully unknown value.
    pub const fn unknown() -> Self {
        Tnum {
            value: 0,
            mask: u64::MAX,
        }
    }

    /// True if every bit is known (the tnum denotes exactly one value).
    pub const fn is_const(&self) -> bool {
        self.mask == 0
    }

    /// True if every value this tnum denotes is also denoted by `other`.
    pub fn is_subset_of(&self, other: &Tnum) -> bool {
        // other must not know any bit self doesn't know, and on bits both
        // know they must agree.
        (self.mask & !other.mask) == 0 && (self.value & !other.mask) == other.value
    }

    /// Greatest lower bound: the tnum containing exactly the values both
    /// operands can denote, or `None` when the known bits conflict (the
    /// intersection is empty).
    pub fn meet(self, other: Tnum) -> Option<Tnum> {
        // Bits known on either side must agree where both are known.
        if (self.value ^ other.value) & !(self.mask | other.mask) != 0 {
            return None;
        }
        let mask = self.mask & other.mask;
        Some(Tnum {
            value: (self.value | other.value) & !mask,
            mask,
        })
    }

    /// Least upper bound: the smallest tnum containing both operand sets.
    pub fn join(self, other: Tnum) -> Tnum {
        // Bits that differ in value, or are unknown on either side, are unknown.
        let mu = self.mask | other.mask | (self.value ^ other.value);
        Tnum {
            value: self.value & !mu,
            mask: mu,
        }
    }

    /// Abstract addition (kernel `tnum_add`). Named after the kernel
    /// helper, not `std::ops::Add` — abstract operations are not the
    /// concrete arithmetic the operator traits promise.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Tnum) -> Tnum {
        let sm = self.mask.wrapping_add(other.mask);
        let sv = self.value.wrapping_add(other.value);
        let sigma = sm.wrapping_add(sv);
        let chi = sigma ^ sv;
        let mu = chi | self.mask | other.mask;
        Tnum {
            value: sv & !mu,
            mask: mu,
        }
    }

    /// Abstract subtraction (kernel `tnum_sub`).
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Tnum) -> Tnum {
        let dv = self.value.wrapping_sub(other.value);
        let alpha = dv.wrapping_add(self.mask);
        let beta = dv.wrapping_sub(other.mask);
        let chi = alpha ^ beta;
        let mu = chi | self.mask | other.mask;
        Tnum {
            value: dv & !mu,
            mask: mu,
        }
    }

    /// Abstract bitwise AND.
    pub fn and(self, other: Tnum) -> Tnum {
        let alpha = self.value | self.mask;
        let beta = other.value | other.mask;
        let v = self.value & other.value;
        Tnum {
            value: v,
            mask: alpha & beta & !v,
        }
    }

    /// Abstract bitwise OR.
    pub fn or(self, other: Tnum) -> Tnum {
        let v = self.value | other.value;
        let mu = self.mask | other.mask;
        Tnum {
            value: v,
            mask: mu & !v,
        }
    }

    /// Abstract bitwise XOR.
    pub fn xor(self, other: Tnum) -> Tnum {
        let v = self.value ^ other.value;
        let mu = self.mask | other.mask;
        Tnum {
            value: v & !mu,
            mask: mu,
        }
    }

    /// Abstract left shift by a known amount.
    pub fn lshift(self, shift: u32) -> Tnum {
        let shift = shift & 63;
        Tnum {
            value: self.value << shift,
            mask: self.mask << shift,
        }
    }

    /// Abstract logical right shift by a known amount.
    pub fn rshift(self, shift: u32) -> Tnum {
        let shift = shift & 63;
        Tnum {
            value: self.value >> shift,
            mask: self.mask >> shift,
        }
    }

    /// Abstract arithmetic right shift by a known amount.
    pub fn arshift(self, shift: u32) -> Tnum {
        let shift = shift & 63;
        Tnum {
            value: ((self.value as i64) >> shift) as u64,
            mask: ((self.mask as i64) >> shift) as u64,
        }
    }

    /// Abstract multiplication (kernel `tnum_mul`, decomposition by bits of self).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Tnum) -> Tnum {
        let acc_v = self.value.wrapping_mul(other.value);
        let mut acc_m = Tnum::constant(0);
        let mut a = self;
        let mut b = other;
        while a.value != 0 || a.mask != 0 {
            if a.value & 1 != 0 {
                acc_m = acc_m.add(Tnum {
                    value: 0,
                    mask: b.mask,
                });
            } else if a.mask & 1 != 0 {
                acc_m = acc_m.add(Tnum {
                    value: 0,
                    mask: b.value | b.mask,
                });
            }
            a = a.rshift(1);
            b = b.lshift(1);
        }
        Tnum::constant(acc_v).add(acc_m)
    }

    /// Truncate to the low 32 bits (ALU32 result semantics: upper bits zeroed).
    pub fn subreg(self) -> Tnum {
        Tnum {
            value: self.value as u32 as u64,
            mask: self.mask as u32 as u64,
        }
    }

    /// Unsigned minimum value this tnum can denote.
    pub fn umin(&self) -> u64 {
        self.value
    }

    /// Unsigned maximum value this tnum can denote.
    pub fn umax(&self) -> u64 {
        self.value | self.mask
    }
}

impl core::fmt::Display for Tnum {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_const() {
            write!(f, "{:#x}", self.value)
        } else if *self == Tnum::unknown() {
            write!(f, "?")
        } else {
            write!(f, "(v={:#x},m={:#x})", self.value, self.mask)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Tnum {
        /// True if the tnum denotes a set containing `v`.
        pub(crate) fn contains(&self, v: u64) -> bool {
            (v & !self.mask) == self.value
        }
    }

    /// All concrete values a (small) tnum denotes, for brute-force soundness.
    fn enumerate(t: Tnum, width: u32) -> Vec<u64> {
        let lim = 1u64 << width;
        (0..lim).filter(|&v| t.contains(v)).collect()
    }

    /// A small universe of 4-bit tnums for exhaustive pairwise checks.
    fn universe() -> Vec<Tnum> {
        let mut out = Vec::new();
        for mask in 0u64..16 {
            for value in 0u64..16 {
                if value & mask == 0 {
                    out.push(Tnum { value, mask });
                }
            }
        }
        out
    }

    fn check_binop(f: fn(Tnum, Tnum) -> Tnum, g: fn(u64, u64) -> u64) {
        for &a in &universe() {
            for &b in &universe() {
                let r = f(a, b);
                for av in enumerate(a, 4) {
                    for bv in enumerate(b, 4) {
                        let cv = g(av, bv);
                        assert!(
                            r.contains(cv),
                            "unsound: {a} op {b} -> {r} missing {av} op {bv} = {cv:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn add_sound() {
        check_binop(Tnum::add, |a, b| a.wrapping_add(b));
    }

    #[test]
    fn sub_sound() {
        check_binop(Tnum::sub, |a, b| a.wrapping_sub(b));
    }

    #[test]
    fn and_sound() {
        check_binop(Tnum::and, |a, b| a & b);
    }

    #[test]
    fn or_sound() {
        check_binop(Tnum::or, |a, b| a | b);
    }

    #[test]
    fn xor_sound() {
        check_binop(Tnum::xor, |a, b| a ^ b);
    }

    #[test]
    fn mul_sound() {
        check_binop(Tnum::mul, |a, b| a.wrapping_mul(b));
    }

    #[test]
    fn shifts_sound() {
        for &a in &universe() {
            for sh in 0..8u32 {
                let l = a.lshift(sh);
                let r = a.rshift(sh);
                let ar = a.arshift(sh);
                for av in enumerate(a, 4) {
                    assert!(l.contains(av << sh), "lshift unsound");
                    assert!(r.contains(av >> sh), "rshift unsound");
                    assert!(ar.contains(((av as i64) >> sh) as u64), "arshift unsound");
                }
            }
        }
    }

    #[test]
    fn meet_is_glb() {
        for &a in &universe() {
            for &b in &universe() {
                let m = a.meet(b);
                for v in 0u64..16 {
                    let in_both = a.contains(v) && b.contains(v);
                    match m {
                        Some(m) => {
                            assert_eq!(m.contains(v), in_both, "meet of {a} and {b} wrong at {v}")
                        }
                        None => assert!(!in_both, "meet of {a} and {b} empty but share {v}"),
                    }
                }
            }
        }
    }

    #[test]
    fn join_is_lub() {
        for &a in &universe() {
            for &b in &universe() {
                let j = a.join(b);
                assert!(a.is_subset_of(&j), "{a} not subset of join {j}");
                assert!(b.is_subset_of(&j), "{b} not subset of join {j}");
            }
        }
    }

    #[test]
    fn constants_exact() {
        let c = Tnum::constant(42);
        assert!(c.is_const());
        assert_eq!(c.umin(), 42);
        assert_eq!(c.umax(), 42);
        assert!(c.contains(42));
        assert!(!c.contains(41));
        assert_eq!(c.add(Tnum::constant(8)), Tnum::constant(50));
        assert_eq!(c.and(Tnum::constant(0xf)), Tnum::constant(10));
    }

    #[test]
    fn subreg_truncates() {
        let t = Tnum {
            value: 0xdead_beef_0000_1234,
            mask: 0xff00,
        };
        let s = t.subreg();
        assert_eq!(s.value, 0x1234);
        assert_eq!(s.mask, 0xff00);
        assert_eq!(s.umax() >> 32, 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Tnum::constant(16).to_string(), "0x10");
        assert_eq!(Tnum::unknown().to_string(), "?");
        assert_eq!(Tnum { value: 2, mask: 1 }.to_string(), "(v=0x2,m=0x1)");
    }
}
