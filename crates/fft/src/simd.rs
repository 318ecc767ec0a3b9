//! Runtime-gated x86_64 vector kernels: the passes of the FFT butterfly
//! engine and the pointwise logistic sweeps of an ILT iteration, each at
//! both element types of [`crate::Float`].
//!
//! # The butterfly passes
//!
//! A transform of [`crate::FftPlan`] is a handful of whole-array passes, and
//! every one of them lives here, as portable safe Rust and as vector code:
//!
//! * `first_pass` / `QuadOrder::first_pass_from` — the stages of size 2
//!   and 4, which need no twiddle (`w` is 1 or `∓i`). The second form reads
//!   its input from another buffer *in bit-reversed order* (and at a
//!   stride), so a transform that has somewhere else to read from pays for
//!   no permutation pass at all.
//! * `fused_pass` — two consecutive radix-2 stages in one sweep. Each
//!   group of four values is loaded once, goes through its butterfly of the
//!   smaller stage and then of the larger one in registers, and is stored
//!   once: half the loads and stores of two separate sweeps. This is
//!   *fusion*, not a radix-4 butterfly: every product and every sum is the
//!   one the stage-at-a-time loop formed, in the same order with the same
//!   roundings, so the transform is bit-identical to that loop (which
//!   survives as the test oracle in `plan.rs`).
//! * `single_pass` — one radix-2 stage, for the stage left over when the
//!   count is odd.
//!
//! # Three bodies, one source per pass
//!
//! Every kernel here is compiled three times — portable, `avx2,fma`
//! (256-bit lanes) and `avx512f` (512-bit lanes) — and a process runs the
//! widest body its CPU reports ([`body_name`]), chosen from `cpuid` once
//! (`Body::probed`: no variable, no feature flag, no timing), so every
//! transform in a process runs the same code path — the property the
//! serial-vs-parallel and workspace-reuse bit-identity suites rely on.
//!
//! * The twiddled passes are written **once** over a lane width and an
//!   element type (`vector_passes!`) and stamped four times: `__m256d`,
//!   `__m512d`, `__m256` and `__m512`. A complex product splats the twiddle
//!   components (`movedup`/`permute` for `f64`, `moveldup`/`movehdup` for
//!   `f32`), then one `mul` and one `fmaddsub`, on two to eight complex
//!   values per register. The instances of one element type do the same to
//!   every lane, so they are bit-identical to each other and to the
//!   per-block `avx2,fma` oracle of that type. Every pass of a plan has
//!   `h >= 4`, so four values always fit; the entries assert it. An `f32`
//!   pass whose quarter holds four values (eight floats) fills half an
//!   `__m512`, so the `avx512f` body runs it on the `__m256` stamp.
//! * The first passes hold one complex value per 128-bit register (the low
//!   half of it for `f32`) and gather their reads; both vector bodies run
//!   the one `avx2,fma` form (a two-quads-per-register form measured −3.5%
//!   / +2.1% on a 128-point `f64` transform, EXPERIMENTS.md "512-bit
//!   lanes").
//! * The portable bodies spell the same butterflies over [`Complex`] for
//!   the autovectorizer, without FMA: they differ from the vector bodies in
//!   the last ulp (as do machines with and without FMA; cross-machine
//!   comparisons in the workspace are tolerance-based) and are
//!   bit-identical to the portable form of the oracle.
//!
//! # The logistic sweeps
//!
//! The same choice covers the two slice kernels a pixel-ILT iteration
//! spends most of its non-FFT time in — [`logistic_scaled`] (latent to
//! mask) and [`logistic_loss`] (intensity to loss and `dL/dI`). They are
//! built on one branch-free polynomial `exp` per element type (so the loops
//! vectorise; libm's `exp` is an opaque scalar call), each body written
//! once and compiled per instruction set. They are compute-bound (as slow
//! from L1 as from memory) and the division binds them: `vdivpd` at `f64`,
//! whose eight-lane sweep is barely faster than its four-lane one, while
//! `vdivps` at `f32` takes twice the lanes at a fraction of the latency:
//! the `f32` latent-to-mask sweep runs at 2.5–3x the `f64` one's speed
//! (the loss sweep gains less: its `f64` lane sum is latency-bound). The
//! two FMA instances of a type are bit-identical: the loss sums its
//! squared errors in `f64`, in pixel-index order whatever the lane count
//! or element type. [`logistic`] is the scalar form: the workspace has one
//! logistic function.
//!
//! # Safety
//!
//! This is the only module in the workspace's numeric crates allowed to
//! use `unsafe`. Every entry point is a safe function that checks, with
//! real assertions, the slice lengths its vector body indexes by; the
//! bodies are only reached through a `Body` the CPU probe made; and the
//! one table whose *contents* are indices (`QuadOrder`) keeps its field
//! private to this module, so no safe caller can hand a kernel an index out
//! of range.

use crate::complex::{Complex, Float};

// `Complex<T>` is `repr(C)`: two `T`s, `re` first. Every kernel below that
// reads a `*const Complex<T>` as `[re, im]` pairs of `T`, and the two slice
// views, rest on exactly this.
const _: () = {
    assert!(std::mem::size_of::<Complex<f64>>() == 16);
    assert!(std::mem::align_of::<Complex<f64>>() == 8);
    assert!(std::mem::offset_of!(Complex<f64>, re) == 0);
    assert!(std::mem::offset_of!(Complex<f64>, im) == 8);
    assert!(std::mem::size_of::<Complex<f32>>() == 8);
    assert!(std::mem::align_of::<Complex<f32>>() == 4);
    assert!(std::mem::offset_of!(Complex<f32>, re) == 0);
    assert!(std::mem::offset_of!(Complex<f32>, im) == 4);
};

/// The instruction sets a body is compiled for, widest last: safe Rust for
/// the baseline target (no FMA), `avx2,fma`, `avx512f`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    #[cfg(target_arch = "x86_64")]
    Avx512f,
}

/// Which compiled body the kernels of this module run. Production code
/// gets it from [`Body::probed`] alone; the field is private, so no value
/// can claim a vector body on a CPU the probe has not cleared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Body {
    isa: Isa,
}

impl Body {
    /// The widest body this CPU reports, computed once: the same answer
    /// for the life of the process.
    #[inline]
    pub(crate) fn probed() -> Body {
        use std::sync::OnceLock;
        static PROBED: OnceLock<Body> = OnceLock::new();
        *PROBED.get_or_init(|| {
            *Body::supported()
                .last()
                .expect("the portable body runs anywhere")
        })
    }

    /// Every body this CPU can run, narrowest first: what the probe chooses
    /// from, and what the tests iterate so each body is held against its
    /// oracle (and the two vector bodies against each other) on one host.
    pub(crate) fn supported() -> Vec<Body> {
        #[allow(unused_mut)]
        let mut bodies = vec![Body::PORTABLE];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            bodies.push(Body { isa: Isa::Avx2Fma });
            if std::arch::is_x86_feature_detected!("avx512f") {
                bodies.push(Body { isa: Isa::Avx512f });
            }
        }
        bodies
    }

    /// The portable body, which runs anywhere.
    pub(crate) const PORTABLE: Body = Body { isa: Isa::Portable };

    /// `"portable"`, `"avx2+fma"` or `"avx512f"`.
    pub(crate) fn name(self) -> &'static str {
        match self.isa {
            Isa::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => "avx2+fma",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => "avx512f",
        }
    }
}

/// The compiled body every kernel of this crate runs in this process —
/// `"portable"`, `"avx2+fma"` or `"avx512f"` — for run records.
pub fn body_name() -> &'static str {
    Body::probed().name()
}

/// `reals` read as `len / 2` interleaved `(re, im)` pairs: how a real row
/// enters its half-length complex transform without a packing pass.
///
/// # Panics
///
/// Panics if the length is odd.
pub(crate) fn as_pairs<T: Float>(reals: &[T]) -> &[Complex<T>] {
    assert!(reals.len().is_multiple_of(2), "odd number of reals");
    // SAFETY: `Complex<T>` is two `T`s with `T`'s alignment and no invalid
    // bit pattern (asserted above for both element types), so `len / 2` of
    // them cover exactly the bytes of `reals`; the borrow carries over
    // unchanged.
    unsafe { std::slice::from_raw_parts(reals.as_ptr().cast(), reals.len() / 2) }
}

/// The mutable form of [`as_pairs`]: how a half-length complex transform
/// leaves its result directly in the real output row.
///
/// # Panics
///
/// Panics if the length is odd.
pub(crate) fn as_pairs_mut<T: Float>(reals: &mut [T]) -> &mut [Complex<T>] {
    assert!(reals.len().is_multiple_of(2), "odd number of reals");
    // SAFETY: as in `as_pairs`; the exclusive borrow carries over unchanged.
    unsafe { std::slice::from_raw_parts_mut(reals.as_mut_ptr().cast(), reals.len() / 2) }
}

/// The compiled kernels one element type carries: the vector bodies of the
/// butterfly passes and both logistic sweeps. A supertrait of
/// [`crate::Float`] that only this module implements (for `f64` and
/// `f32`), and that no code outside the crate can name.
pub trait Kernels: Sized + Copy {
    /// The vector first pass over data in bit-reversed order.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX2+FMA and the length must be a multiple of four.
    #[cfg(target_arch = "x86_64")]
    unsafe fn first_pass_vector(data: &mut [Complex<Self>], inverse: bool);

    /// The vector first pass reading `src` in the order `starts` gives.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX2+FMA; every entry of `starts` must be below
    /// `starts.len()`, `dst` must hold `4 * starts.len()` values, and
    /// `first + (dst.len() - 1) * stride` must index `src`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn first_pass_from_vector(
        starts: &[u32],
        src: &[Complex<Self>],
        first: usize,
        stride: usize,
        dst: &mut [Complex<Self>],
        inverse: bool,
    );

    /// [`fused_pass`] on a vector body.
    ///
    /// # Safety
    ///
    /// `isa` must be a vector body the probe cleared on this CPU, and the
    /// lengths must be those [`fused_pass`] asserts.
    #[cfg(target_arch = "x86_64")]
    unsafe fn fused_pass_vector(isa: Isa, data: &mut [Complex<Self>], tw: &[Complex<Self>]);

    /// [`single_pass`] on a vector body.
    ///
    /// # Safety
    ///
    /// `isa` must be a vector body the probe cleared on this CPU, and the
    /// lengths must be those [`single_pass`] asserts.
    #[cfg(target_arch = "x86_64")]
    unsafe fn single_pass_vector(isa: Isa, data: &mut [Complex<Self>], tw: &[Complex<Self>]);

    /// [`logistic_scaled`] on a given body (equal lengths checked by the
    /// caller).
    fn logistic_scaled_on(body: Body, xs: &[Self], center: Self, scale: Self, out: &mut [Self]);

    /// [`logistic_loss`] on a given body (equal lengths checked by the
    /// caller).
    fn logistic_loss_on(
        body: Body,
        xs: &[Self],
        center: Self,
        scale: Self,
        target: &[Self],
        dldx: &mut [Self],
    ) -> f64;

    /// The per-block AVX2+FMA butterfly of the stage-at-a-time engine,
    /// kept as the oracle the fused passes are compared against bit for
    /// bit (`plan.rs`).
    #[cfg(all(test, target_arch = "x86_64"))]
    fn butterfly_block_x86(
        lo: &mut [Complex<Self>],
        hi: &mut [Complex<Self>],
        tw: &[Complex<Self>],
    );
}

// ---- The butterfly passes -----------------------------------------------

/// The four-point transform of one quad, stages of size 2 and 4 together:
/// `x` holds the inputs in bit-reversed order and `flip` is `1` forward,
/// `-1` inverse (the size-4 stage's twiddles are `1` and `∓i`, and
/// multiplying by `∓i` is an exact component swap).
#[inline(always)]
fn quad<T: Float>(x: [Complex<T>; 4], flip: T) -> [Complex<T>; 4] {
    let s0 = x[0] + x[1];
    let d0 = x[0] - x[1];
    let s1 = x[2] + x[3];
    let d1 = x[2] - x[3];
    // t = ∓i * d1, exactly.
    let t = Complex::new(flip * d1.im, -flip * d1.re);
    [s0 + s1, d0 + t, s0 - s1, d0 - t]
}

/// One radix-2 butterfly: `u + w v` and `u - w v`.
#[inline(always)]
fn butterfly<T: Float>(u: Complex<T>, v: Complex<T>, w: Complex<T>) -> (Complex<T>, Complex<T>) {
    let t = w * v;
    (u + t, u - t)
}

#[inline]
fn direction_flip<T: Float>(inverse: bool) -> T {
    if inverse {
        -T::ONE
    } else {
        T::ONE
    }
}

/// The bit-reversal permutation of a power-of-two length `n >= 4` as the
/// *read order* of a first pass: outputs `4q..4q + 4` are the four-point
/// transform of the inputs at `rev(4q) + {0, n/2, n/4, 3n/4}`, and entry
/// `q` of the table is `rev(4q)`.
///
/// The field is private to this module and only [`QuadOrder::new`] fills
/// it, which is what lets the vector body index by its entries unchecked:
/// there are `n / 4` of them and each is below `n / 4`.
#[derive(Debug, Clone)]
pub struct QuadOrder {
    starts: Vec<u32>,
}

impl QuadOrder {
    /// The read order for transforms of length `len`.
    ///
    /// # Panics
    ///
    /// Panics unless `len` is a power of two of at least 4 that fits `u32`.
    pub(crate) fn new(len: usize) -> Self {
        assert!(len >= 4 && len.is_power_of_two(), "length {len}");
        let quads = u32::try_from(len / 4).expect("transform length fits u32");
        // rev(4q) within log2(len) bits is q reversed within two bits
        // fewer: the two low zero bits of 4q become the two high ones.
        let bits = quads.trailing_zeros();
        let starts = (0..quads)
            .map(|q| q.reverse_bits().checked_shr(32 - bits).unwrap_or(0))
            .collect();
        QuadOrder { starts }
    }

    /// Transform length this order was built for.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        4 * self.starts.len()
    }

    /// Bytes of the table.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.starts)
    }

    /// The first pass of an out-of-place transform: element `k` of the
    /// input is `src[first + k * stride]`, and `dst` receives the stages
    /// of size 2 and 4 of its bit-reversed order — what [`first_pass`]
    /// leaves after an in-place permutation, with no pass spent permuting.
    ///
    /// # Panics
    ///
    /// Panics unless `dst` has this order's length and `src` holds every
    /// element addressed.
    pub(crate) fn first_pass_from<T: Float>(
        &self,
        src: &[Complex<T>],
        first: usize,
        stride: usize,
        dst: &mut [Complex<T>],
        inverse: bool,
        body: Body,
    ) {
        let n = self.len();
        assert_eq!(dst.len(), n, "first_pass_from: output length");
        let last = (n - 1)
            .checked_mul(stride)
            .and_then(|reach| reach.checked_add(first));
        assert!(
            last.is_some_and(|last| last < src.len()),
            "first_pass_from: source too short"
        );
        // One complex value per 128-bit register: both vector bodies run
        // the `avx2,fma` form.
        #[cfg(target_arch = "x86_64")]
        if body != Body::PORTABLE {
            // SAFETY: a non-portable body exists only after the probe
            // verified avx2+fma on this CPU; every entry of `starts` is
            // below its length (the type's invariant); both lengths were
            // asserted just above.
            return unsafe {
                T::first_pass_from_vector(&self.starts, src, first, stride, dst, inverse)
            };
        }
        let flip = direction_flip(inverse);
        let quarter = self.starts.len();
        let at = |k: usize| src[first + k * stride];
        for (out, &start) in dst.chunks_exact_mut(4).zip(&self.starts) {
            let r = start as usize;
            let x = [
                at(r),
                at(r + 2 * quarter),
                at(r + quarter),
                at(r + 3 * quarter),
            ];
            out.copy_from_slice(&quad(x, flip));
        }
    }
}

/// The stages of size 2 and 4 over data already in bit-reversed order, in
/// place: each aligned quad becomes its four-point transform.
///
/// # Panics
///
/// Panics unless the length is a multiple of four.
pub(crate) fn first_pass<T: Float>(data: &mut [Complex<T>], inverse: bool, body: Body) {
    assert!(data.len().is_multiple_of(4), "first_pass: length");
    #[cfg(target_arch = "x86_64")]
    if body != Body::PORTABLE {
        // SAFETY: a non-portable body exists only after the probe verified
        // avx2+fma on this CPU; the length was asserted just above.
        return unsafe { T::first_pass_vector(data, inverse) };
    }
    let flip = direction_flip(inverse);
    for q in data.chunks_exact_mut(4) {
        let out = quad([q[0], q[1], q[2], q[3]], flip);
        q.copy_from_slice(&out);
    }
}

/// Two consecutive radix-2 stages, of size `2h` and `4h`, over the whole
/// array in one sweep. `tw` is their `3h` twiddles as the stage-major table
/// holds them: `h` for the size-`2h` stage, then `2h` for the size-`4h`.
///
/// Within each block of `4h` values the quarters `A B C D` go through
/// `(A, B)` and `(C, D)` with the smaller stage's twiddle `k`, then
/// `(A', C')` with the larger stage's twiddle `k` and `(B', D')` with its
/// twiddle `k + h` — the same butterflies two [`single_pass`]es would run,
/// each value loaded and stored once instead of twice.
///
/// # Panics
///
/// Panics unless `h` is a positive multiple of four (every pass of a plan
/// has `h >= 4`, a power of two, so four complex values per register
/// always fit) and the array is whole blocks.
pub(crate) fn fused_pass<T: Float>(data: &mut [Complex<T>], tw: &[Complex<T>], body: Body) {
    let h = tw.len() / 3;
    assert!(
        tw.len() == 3 * h && h >= 4 && h.is_multiple_of(4),
        "fused_pass: twiddles"
    );
    assert!(data.len().is_multiple_of(4 * h), "fused_pass: length");
    #[cfg(target_arch = "x86_64")]
    if body != Body::PORTABLE {
        // SAFETY: the probe verified the body's features on this CPU before
        // it made the body; the lengths were asserted just above.
        return unsafe { T::fused_pass_vector(body.isa, data, tw) };
    }
    let (w1, w2) = tw.split_at(h);
    let (w2_lo, w2_hi) = w2.split_at(h);
    for block in data.chunks_exact_mut(4 * h) {
        let (ab, cd) = block.split_at_mut(2 * h);
        let (a, b) = ab.split_at_mut(h);
        let (c, d) = cd.split_at_mut(h);
        let quarters = a.iter_mut().zip(b).zip(c.iter_mut().zip(d));
        let twiddles = w1.iter().zip(w2_lo.iter().zip(w2_hi));
        for (((a, b), (c, d)), (&w1, (&w2_lo, &w2_hi))) in quarters.zip(twiddles) {
            let (a1, b1) = butterfly(*a, *b, w1);
            let (c1, d1) = butterfly(*c, *d, w1);
            (*a, *c) = butterfly(a1, c1, w2_lo);
            (*b, *d) = butterfly(b1, d1, w2_hi);
        }
    }
}

/// One radix-2 stage of size `2 * tw.len()` over the whole array:
/// `lo[k], hi[k] <- lo[k] ± tw[k] * hi[k]` in every block.
///
/// # Panics
///
/// Panics unless the half size is a positive multiple of four (as in
/// [`fused_pass`]) and the array is whole blocks.
pub(crate) fn single_pass<T: Float>(data: &mut [Complex<T>], tw: &[Complex<T>], body: Body) {
    let half = tw.len();
    assert!(half >= 4 && half.is_multiple_of(4), "single_pass: twiddles");
    assert!(data.len().is_multiple_of(2 * half), "single_pass: length");
    #[cfg(target_arch = "x86_64")]
    if body != Body::PORTABLE {
        // SAFETY: the probe verified the body's features on this CPU before
        // it made the body; the lengths were asserted just above.
        return unsafe { T::single_pass_vector(body.isa, data, tw) };
    }
    for block in data.chunks_exact_mut(2 * half) {
        let (lo, hi) = block.split_at_mut(half);
        for ((l, h), &w) in lo.iter_mut().zip(hi).zip(tw) {
            (*l, *h) = butterfly(*l, *h, w);
        }
    }
}

/// The first passes' vector forms: one complex value per 128-bit register
/// (`f64`: the whole register; `f32`: its low half), stamped per element
/// type. The quad arithmetic has no product, so these agree with the
/// portable form bit for bit.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::complex::Complex;
    use core::arch::x86_64::*;

    /// The sign mask that turns a component swap into a multiplication by
    /// `-i` (forward: negate the new imaginary part) or `+i` (inverse:
    /// negate the new real part).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn rotation_sign_pd(inverse: bool) -> __m128d {
        if inverse {
            _mm_set_pd(0.0, -0.0)
        } else {
            _mm_set_pd(-0.0, 0.0)
        }
    }

    /// [`rotation_sign_pd`] for one `f32` complex value in the low half.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn rotation_sign_ps(inverse: bool) -> __m128 {
        if inverse {
            _mm_set_ps(0.0, 0.0, 0.0, -0.0)
        } else {
            _mm_set_ps(0.0, 0.0, -0.0, 0.0)
        }
    }

    /// The four-point transform (`super::quad`) on one complex value per
    /// register, stamped for `__m128d` and `__m128`.
    macro_rules! quad_fn {
        ($name:ident, $vec:ty, $add:ident, $sub:ident, $xor:ident, $swap:expr) => {
            #[target_feature(enable = "avx2,fma")]
            #[inline]
            fn $name(x: [$vec; 4], sign: $vec) -> [$vec; 4] {
                let s0 = $add(x[0], x[1]);
                let d0 = $sub(x[0], x[1]);
                let s1 = $add(x[2], x[3]);
                let d1 = $sub(x[2], x[3]);
                let t = $xor($swap(d1), sign);
                [$add(s0, s1), $add(d0, t), $sub(s0, s1), $sub(d0, t)]
            }
        };
    }
    quad_fn!(
        quad_pd,
        __m128d,
        _mm_add_pd,
        _mm_sub_pd,
        _mm_xor_pd,
        _mm_permute_pd::<0b01>
    );
    quad_fn!(
        quad_ps,
        __m128,
        _mm_add_ps,
        _mm_sub_ps,
        _mm_xor_ps,
        _mm_permute_ps::<0xB1>
    );

    /// Loads one complex `f64` value.
    ///
    /// # Safety
    ///
    /// `at` must be valid for reading two `f64`s.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn load_pd(at: *const f64) -> __m128d {
        // SAFETY: the caller vouches for `at .. at + 2`.
        unsafe { _mm_loadu_pd(at) }
    }

    /// Loads one complex `f32` value into the low half.
    ///
    /// # Safety
    ///
    /// `at` must be valid for reading two `f32`s.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn load_ps(at: *const f32) -> __m128 {
        // SAFETY: the caller vouches for the eight bytes at `at`; the load
        // has no alignment requirement.
        unsafe { _mm_castsi128_ps(_mm_loadl_epi64(at.cast())) }
    }

    /// Stores four complex `f64` values at `out .. out + 8`.
    ///
    /// # Safety
    ///
    /// `out` must be valid for writing eight `f64`s.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn store_quad_pd(out: *mut f64, q: [__m128d; 4]) {
        // SAFETY: the caller vouches for `out .. out + 8`.
        unsafe {
            _mm_storeu_pd(out, q[0]);
            _mm_storeu_pd(out.add(2), q[1]);
            _mm_storeu_pd(out.add(4), q[2]);
            _mm_storeu_pd(out.add(6), q[3]);
        }
    }

    /// Stores four complex `f32` values (each in a low half) at
    /// `out .. out + 8`.
    ///
    /// # Safety
    ///
    /// `out` must be valid for writing eight `f32`s.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn store_quad_ps(out: *mut f32, q: [__m128; 4]) {
        // SAFETY: the caller vouches for `out .. out + 8`.
        unsafe {
            _mm_storeu_ps(out, _mm_movelh_ps(q[0], q[1]));
            _mm_storeu_ps(out.add(4), _mm_movelh_ps(q[2], q[3]));
        }
    }

    /// Both first passes for one element type.
    macro_rules! first_passes {
        (
            $elem:ty, $sign:ident, $quad:ident, $load:ident, $store:ident,
            $in_place:ident, $gathered:ident
        ) => {
            /// # Safety
            ///
            /// The CPU must have AVX2+FMA and the length must be a multiple
            /// of four.
            #[target_feature(enable = "avx2,fma")]
            pub(super) unsafe fn $in_place(data: &mut [Complex<$elem>], inverse: bool) {
                let sign = $sign(inverse);
                let p = data.as_mut_ptr().cast::<$elem>();
                for q in 0..data.len() / 4 {
                    // SAFETY: quad `q < len / 4` is elements `4q .. 4q + 4
                    // <= len`, i.e. components `8q .. 8q + 8`; it is read
                    // whole before it is written.
                    unsafe {
                        let at = p.add(8 * q);
                        let x = [
                            $load(at),
                            $load(at.add(2)),
                            $load(at.add(4)),
                            $load(at.add(6)),
                        ];
                        $store(at, $quad(x, sign));
                    }
                }
            }

            /// The quads of `starts` of a transform whose read order has
            /// `quarter` entries.
            ///
            /// # Safety
            ///
            /// The CPU must have AVX2+FMA, every entry of `starts` must be
            /// below `quarter`, `dst` must hold `4 * starts.len()` values
            /// and `first + (4 * quarter - 1) * stride` must index `src`.
            #[target_feature(enable = "avx2,fma")]
            pub(super) unsafe fn $gathered(
                starts: &[u32],
                quarter: usize,
                src: &[Complex<$elem>],
                first: usize,
                stride: usize,
                dst: &mut [Complex<$elem>],
                inverse: bool,
            ) {
                let sign = $sign(inverse);
                // Components between input elements a quarter of the
                // length apart.
                let step = 2 * stride * quarter;
                let s = src.as_ptr().cast::<$elem>();
                let d = dst.as_mut_ptr().cast::<$elem>();
                for (q, &start) in starts.iter().enumerate() {
                    // SAFETY: `start < quarter` (vouched for by the
                    // caller), so the four elements read are `k = start +
                    // {0, 2, 1, 3} * quarter <= 4 * quarter - 1`, and the
                    // caller vouches that `first + (4 * quarter - 1) *
                    // stride` indexes `src`; `dst` has `4 * starts.len()`
                    // elements, so quad `q < starts.len()` is inside.
                    unsafe {
                        let x0 = s.add(2 * (first + start as usize * stride));
                        let out = $quad(
                            [
                                $load(x0),
                                $load(x0.add(2 * step)),
                                $load(x0.add(step)),
                                $load(x0.add(3 * step)),
                            ],
                            sign,
                        );
                        $store(d.add(8 * q), out);
                    }
                }
            }
        };
    }
    first_passes!(
        f64,
        rotation_sign_pd,
        quad_pd,
        load_pd,
        store_quad_pd,
        first_pass_f64,
        first_pass_from_f64
    );
    first_passes!(
        f32,
        rotation_sign_ps,
        quad_ps,
        load_ps,
        store_quad_ps,
        first_pass_one_f32,
        first_pass_from_one_f32
    );

    /// [`rotation_sign_ps`] for four complex `f32` values.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn rotation_sign_4ps(inverse: bool) -> __m256 {
        if inverse {
            _mm256_set_ps(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0)
        } else {
            _mm256_set_ps(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0)
        }
    }
    quad_fn!(
        quad_4ps,
        __m256,
        _mm256_add_ps,
        _mm256_sub_ps,
        _mm256_xor_ps,
        _mm256_permute_ps::<0xB1>
    );

    /// Transposes four registers of four complex `f32` values each, as a
    /// 4 x 4 matrix of 64-bit elements: `out[j][i] = r[i][j]`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn transpose4(r: [__m256; 4]) -> [__m256; 4] {
        let (r0, r1) = (_mm256_castps_pd(r[0]), _mm256_castps_pd(r[1]));
        let (r2, r3) = (_mm256_castps_pd(r[2]), _mm256_castps_pd(r[3]));
        let t0 = _mm256_unpacklo_pd(r0, r1);
        let t1 = _mm256_unpackhi_pd(r0, r1);
        let t2 = _mm256_unpacklo_pd(r2, r3);
        let t3 = _mm256_unpackhi_pd(r2, r3);
        [
            _mm256_castpd_ps(_mm256_permute2f128_pd::<0x20>(t0, t2)),
            _mm256_castpd_ps(_mm256_permute2f128_pd::<0x20>(t1, t3)),
            _mm256_castpd_ps(_mm256_permute2f128_pd::<0x31>(t0, t2)),
            _mm256_castpd_ps(_mm256_permute2f128_pd::<0x31>(t1, t3)),
        ]
    }

    /// The `f32` first pass in place, four quads per register: four quads
    /// are loaded whole, transposed so that register `j` holds their
    /// values `j`, run through the four-point transform together and
    /// transposed back. A count of quads that is no multiple of four
    /// leaves its last ones to the one-value-per-register form.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX2+FMA and the length must be a multiple of four.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn first_pass_f32(data: &mut [Complex<f32>], inverse: bool) {
        let sign = rotation_sign_4ps(inverse);
        let whole = data.len() / 16 * 16;
        let p = data.as_mut_ptr().cast::<f32>();
        for q in (0..whole / 4).step_by(4) {
            // SAFETY: quads `q .. q + 4` are elements `4q .. 4q + 16 <=
            // whole <= len`, i.e. floats `8q .. 8q + 32`; they are read
            // whole before they are written.
            unsafe {
                let at = p.add(8 * q);
                let quads = [
                    _mm256_loadu_ps(at),
                    _mm256_loadu_ps(at.add(8)),
                    _mm256_loadu_ps(at.add(16)),
                    _mm256_loadu_ps(at.add(24)),
                ];
                let out = transpose4(quad_4ps(transpose4(quads), sign));
                _mm256_storeu_ps(at, out[0]);
                _mm256_storeu_ps(at.add(8), out[1]);
                _mm256_storeu_ps(at.add(16), out[2]);
                _mm256_storeu_ps(at.add(24), out[3]);
            }
        }
        // SAFETY: the rest is a whole number of quads; the caller's
        // contract covers it.
        unsafe { first_pass_one_f32(&mut data[whole..], inverse) }
    }

    /// The gathered `f32` first pass, four quads per register: each
    /// register is filled with one value of each of four quads, read
    /// where the order says, and the results are transposed back into
    /// whole quads.
    ///
    /// # Safety
    ///
    /// As for `first_pass_from_f64`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn first_pass_from_f32(
        starts: &[u32],
        quarter: usize,
        src: &[Complex<f32>],
        first: usize,
        stride: usize,
        dst: &mut [Complex<f32>],
        inverse: bool,
    ) {
        let sign = rotation_sign_4ps(inverse);
        let whole = starts.len() / 4 * 4;
        let step = 2 * stride * quarter;
        let s = src.as_ptr().cast::<f32>();
        let d = dst.as_mut_ptr().cast::<f32>();
        for (q, group) in (0..whole).step_by(4).zip(starts.chunks_exact(4)) {
            // SAFETY: every `start < quarter` (vouched for by the caller),
            // so each element read is `k = start + {0, 2, 1, 3} * quarter
            // <= 4 * quarter - 1`, whose `first + k * stride` the caller
            // vouches indexes `src`; quads `q .. q + 4 <= starts.len()` of
            // `dst` (`4 * starts.len()` elements) are inside.
            unsafe {
                let x0 = [
                    s.add(2 * (first + group[0] as usize * stride)),
                    s.add(2 * (first + group[1] as usize * stride)),
                    s.add(2 * (first + group[2] as usize * stride)),
                    s.add(2 * (first + group[3] as usize * stride)),
                ];
                let x = [
                    gather4(x0, 0),
                    gather4(x0, 2 * step),
                    gather4(x0, step),
                    gather4(x0, 3 * step),
                ];
                let out = transpose4(quad_4ps(x, sign));
                _mm256_storeu_ps(d.add(8 * q), out[0]);
                _mm256_storeu_ps(d.add(8 * q + 8), out[1]);
                _mm256_storeu_ps(d.add(8 * q + 16), out[2]);
                _mm256_storeu_ps(d.add(8 * q + 24), out[3]);
            }
        }
        // SAFETY: the remaining starts keep the caller's contract for the
        // quads they address; `dst` is offset to match.
        unsafe {
            first_pass_from_one_f32(
                &starts[whole..],
                quarter,
                src,
                first,
                stride,
                &mut dst[4 * whole..],
                inverse,
            )
        }
    }

    /// The complex values at `x[i] + offset`, `i < 4`, side by side.
    ///
    /// # Safety
    ///
    /// Each `x[i] + offset` must be valid for reading two `f32`s.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn gather4(x: [*const f32; 4], offset: usize) -> __m256 {
        // SAFETY: the caller vouches for the four reads.
        unsafe {
            let lo = _mm_movelh_ps(load_ps(x[0].add(offset)), load_ps(x[1].add(offset)));
            let hi = _mm_movelh_ps(load_ps(x[2].add(offset)), load_ps(x[3].add(offset)));
            _mm256_set_m128(hi, lo)
        }
    }
}

/// The twiddled passes on vector lanes, written once and stamped per lane
/// width and element type: `$lanes` components (`$lanes / 2` complex
/// values) per `$vec`. `$dup_re` / `$dup_im` splat each complex value's
/// real / imaginary part across its two lanes and `$swap` swaps every
/// pair.
#[cfg(target_arch = "x86_64")]
macro_rules! vector_passes {
    (
        $module:ident, $feature:literal, $elem:ty, $vec:ty, $lanes:literal,
        $load:ident, $store:ident, $add:ident, $sub:ident, $mul:ident, $fmaddsub:ident,
        $dup_re:expr, $dup_im:expr, $swap:expr
    ) => {
        mod $module {
            use crate::complex::Complex;
            use core::arch::x86_64::*;

            /// Components per register.
            const LANES: usize = $lanes;

            /// `LANES / 2` twiddles with their components splat across
            /// their lanes: `re = [re0, re0, re1, re1, ..]`, `im` likewise.
            #[derive(Clone, Copy)]
            struct Splat {
                re: $vec,
                im: $vec,
            }

            /// Loads the twiddles at `w .. w + LANES`.
            ///
            /// # Safety
            ///
            /// `w` must be valid for reading `LANES` components.
            #[target_feature(enable = $feature)]
            #[inline]
            unsafe fn splat(w: *const $elem) -> Splat {
                // SAFETY: the caller vouches for `w .. w + LANES`.
                let w = unsafe { $load(w) };
                Splat {
                    re: $dup_re(w),
                    im: $dup_im(w),
                }
            }

            /// `w * v` on interleaved complex lanes. `fmaddsub` gives the
            /// even lanes `re.v - im.vs` and the odd ones `re.v + im.vs`,
            /// with `vs` the lanes of `v` swapped: the complex product, the
            /// second term rounded before the fused first — the one
            /// rounding sequence every vector butterfly of this crate has
            /// used.
            #[target_feature(enable = $feature)]
            #[inline]
            fn cmul(w: Splat, v: $vec) -> $vec {
                let vs = $swap(v);
                $fmaddsub(w.re, v, $mul(w.im, vs))
            }

            /// # Safety
            ///
            /// The CPU must have this module's features, `tw.len()` must be
            /// `3h` with `2h` a multiple of `LANES`, and `data.len()` a
            /// multiple of `4h`.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn fused_pass(data: &mut [Complex<$elem>], tw: &[Complex<$elem>]) {
                // Components per quarter block.
                let quarter = 2 * (tw.len() / 3);
                let components = 2 * data.len();
                let p = data.as_mut_ptr().cast::<$elem>();
                let w = tw.as_ptr().cast::<$elem>();
                let mut block = 0;
                while block < components {
                    let mut k = 0;
                    while k < quarter {
                        // SAFETY: `k + LANES <= quarter` (a multiple of
                        // `LANES`) and `block + 4 * quarter <= components`
                        // (whole blocks, both vouched for by the caller),
                        // so the four data loads and stores at
                        // `block + j * quarter + k .. + LANES`, `j < 4`,
                        // stay in `data`; the twiddle loads at `k`,
                        // `quarter + k` and `2 * quarter + k` stay in
                        // `tw`'s `3 * quarter` components.
                        unsafe {
                            let a = p.add(block + k);
                            let b = a.add(quarter);
                            let c = b.add(quarter);
                            let d = c.add(quarter);
                            let w1 = splat(w.add(k));
                            let (va, vc) = ($load(a), $load(c));
                            let t = cmul(w1, $load(b));
                            let (a1, b1) = ($add(va, t), $sub(va, t));
                            let t = cmul(w1, $load(d));
                            let (c1, d1) = ($add(vc, t), $sub(vc, t));
                            let t = cmul(splat(w.add(quarter + k)), c1);
                            $store(a, $add(a1, t));
                            $store(c, $sub(a1, t));
                            let t = cmul(splat(w.add(2 * quarter + k)), d1);
                            $store(b, $add(b1, t));
                            $store(d, $sub(b1, t));
                        }
                        k += LANES;
                    }
                    block += 4 * quarter;
                }
            }

            /// # Safety
            ///
            /// The CPU must have this module's features, `2 * tw.len()` must
            /// be a multiple of `LANES`, and `data.len()` a multiple of
            /// `2 * tw.len()`.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn single_pass(data: &mut [Complex<$elem>], tw: &[Complex<$elem>]) {
                // Components per half block.
                let half = 2 * tw.len();
                let components = 2 * data.len();
                let p = data.as_mut_ptr().cast::<$elem>();
                let w = tw.as_ptr().cast::<$elem>();
                let mut block = 0;
                while block < components {
                    let mut k = 0;
                    while k < half {
                        // SAFETY: `k + LANES <= half` (a multiple of
                        // `LANES`) and `block + 2 * half <= components`
                        // (whole blocks, both vouched for by the caller),
                        // so both halves' accesses stay in `data` and the
                        // twiddle load in `tw`'s `half` components.
                        unsafe {
                            let lo = p.add(block + k);
                            let hi = lo.add(half);
                            let u = $load(lo);
                            let t = cmul(splat(w.add(k)), $load(hi));
                            $store(lo, $add(u, t));
                            $store(hi, $sub(u, t));
                        }
                        k += LANES;
                    }
                    block += 2 * half;
                }
            }

            /// The per-block form of [`single_pass`]'s butterfly over one
            /// `lo`/`hi` pair, kept as the test oracle.
            ///
            /// # Safety
            ///
            /// The CPU must have this module's features and the three
            /// slices one length, a multiple of `LANES / 2`.
            #[cfg(test)]
            #[allow(dead_code)] // the oracle runs the 256-bit stamps only
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn butterfly_block(
                lo: &mut [Complex<$elem>],
                hi: &mut [Complex<$elem>],
                tw: &[Complex<$elem>],
            ) {
                let components = 2 * lo.len();
                let (lp, hp) = (
                    lo.as_mut_ptr().cast::<$elem>(),
                    hi.as_mut_ptr().cast::<$elem>(),
                );
                let wp = tw.as_ptr().cast::<$elem>();
                let mut k = 0;
                while k < components {
                    // SAFETY: `k + LANES <= components` (a multiple of
                    // `LANES`, vouched for by the caller) in all three
                    // equal-length slices.
                    unsafe {
                        let u = $load(lp.add(k));
                        let t = cmul(splat(wp.add(k)), $load(hp.add(k)));
                        $store(lp.add(k), $add(u, t));
                        $store(hp.add(k), $sub(u, t));
                    }
                    k += LANES;
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
vector_passes! {
    lanes256, "avx2,fma", f64, __m256d, 4,
    _mm256_loadu_pd, _mm256_storeu_pd, _mm256_add_pd, _mm256_sub_pd, _mm256_mul_pd,
    _mm256_fmaddsub_pd,
    _mm256_movedup_pd, _mm256_permute_pd::<0b1111>, _mm256_permute_pd::<0b0101>
}
#[cfg(target_arch = "x86_64")]
vector_passes! {
    lanes512, "avx512f", f64, __m512d, 8,
    _mm512_loadu_pd, _mm512_storeu_pd, _mm512_add_pd, _mm512_sub_pd, _mm512_mul_pd,
    _mm512_fmaddsub_pd,
    _mm512_movedup_pd, _mm512_permute_pd::<0xFF>, _mm512_permute_pd::<0x55>
}
#[cfg(target_arch = "x86_64")]
vector_passes! {
    lanes256_f32, "avx2,fma", f32, __m256, 8,
    _mm256_loadu_ps, _mm256_storeu_ps, _mm256_add_ps, _mm256_sub_ps, _mm256_mul_ps,
    _mm256_fmaddsub_ps,
    _mm256_moveldup_ps, _mm256_movehdup_ps, _mm256_permute_ps::<0xB1>
}
#[cfg(target_arch = "x86_64")]
vector_passes! {
    lanes512_f32, "avx512f", f32, __m512, 16,
    _mm512_loadu_ps, _mm512_storeu_ps, _mm512_add_ps, _mm512_sub_ps, _mm512_mul_ps,
    _mm512_fmaddsub_ps,
    _mm512_moveldup_ps, _mm512_movehdup_ps, _mm512_permute_ps::<0xB1>
}

// ---- The logistic function and its slice kernels ------------------------

/// Independent partial sums of [`logistic_loss`]: squared errors of pixels
/// `i = j (mod 4)` go to lane `j`.
const SUM_LANES: usize = 4;
/// Pixels per block of [`logistic_loss`]: the squared errors of one block
/// wait in a stack buffer between the vectorised sweep and their
/// fixed-order summation.
const LOSS_BLOCK: usize = 64 * SUM_LANES;

/// The polynomial `exp`, the logistic and both slice-kernel bodies for one
/// element type, from its constants:
///
/// * `floor` — `exp` arguments below it are raised to it: the power-of-two
///   scale `2^k` and the product with the polynomial stay normal numbers
///   down to there, so the result needs no subnormal handling, and the
///   logistic of anything that far out is 0 or 1 to the type's precision;
/// * `magic` — `1.5 * 2^m` for an `m`-bit mantissa: adding it to
///   `|v| < 2^(m-1)` rounds `v` to the nearest integer, which is then
///   readable from the sum's low mantissa bits;
/// * `ln2` — `ln 2` split for a Cody–Waite reduction, the high part short
///   enough that `k * hi` is exact for every `k` the floor allows;
/// * `taylor` — `1/k!` from the highest degree down to `k = 2`: on
///   `|r| <= ln(2)/2` the truncation error is a few hundredths of an ulp.
macro_rules! logistic_kernels {
    (
        $module:ident, $t:ty, $bits:ty, $mantissa:literal, $bias:literal,
        floor: $floor:expr, magic: $magic:expr, ln2: ($hi:expr, $lo:expr),
        log2e: $log2e:expr, taylor: [$($c:expr),* $(,)?]
    ) => {
        pub(crate) mod $module {
            use super::{LOSS_BLOCK, SUM_LANES};

            pub(crate) const EXP_FLOOR: $t = $floor;
            const ROUND_MAGIC: $t = $magic;
            const LN2_HI: $t = $hi;
            const LN2_LO: $t = $lo;
            const EXP_TAYLOR: &[$t] = &[$($c),*];

            /// `a * b + c`, fused when the surrounding body is compiled
            /// with FMA. (Without the hardware instruction `mul_add` is a
            /// libm call.)
            #[inline(always)]
            fn mla<const FMA: bool>(a: $t, b: $t, c: $t) -> $t {
                if FMA {
                    a.mul_add(b, c)
                } else {
                    a * b + c
                }
            }

            /// `exp(x)` for `x <= 0`, branch-free (every `if` is a select),
            /// to well under one ulp. NaN propagates: the floor is a
            /// comparison, which NaN fails, not `max`, which would swallow
            /// it.
            #[inline(always)]
            fn exp_nonpositive<const FMA: bool>(x: $t) -> $t {
                let x = if x < EXP_FLOOR { EXP_FLOOR } else { x };
                // x = k ln 2 + r with k = round(x / ln 2), |r| <= ln(2)/2.
                let t = mla::<FMA>(x, $log2e, ROUND_MAGIC);
                let k = t - ROUND_MAGIC;
                let r = mla::<FMA>(k, -LN2_LO, mla::<FMA>(k, -LN2_HI, x));
                // exp(r) = 1 + r + r^2 (1/2 + r/6 + ...), Horner on the
                // bracket.
                let mut u = EXP_TAYLOR[0];
                for &c in &EXP_TAYLOR[1..] {
                    u = mla::<FMA>(u, r, c);
                }
                let p = mla::<FMA>(r * r, u, r) + 1.0;
                // 2^k from the integer in t's low mantissa bits: k is in
                // [floor / ln 2, 0], so the biased exponent k + bias is
                // that of a normal number.
                let scale = <$t>::from_bits(
                    (t.to_bits() << $mantissa).wrapping_add(($bias as $bits) << $mantissa),
                );
                p * scale
            }

            /// The logistic function `1 / (1 + exp(-x))` in its stable
            /// two-sided form, one `exp` and one division, no branch.
            #[inline(always)]
            pub(crate) fn logistic_with<const FMA: bool>(x: $t) -> $t {
                let e = exp_nonpositive::<FMA>(-x.abs());
                let numerator = if x >= 0.0 { 1.0 } else { e };
                numerator / (1.0 + e)
            }

            #[inline(always)]
            pub(crate) fn logistic_scaled_body<const FMA: bool>(
                xs: &[$t],
                center: $t,
                scale: $t,
                out: &mut [$t],
            ) {
                for (o, &x) in out.iter_mut().zip(xs) {
                    *o = logistic_with::<FMA>(scale * (x - center));
                }
            }

            #[inline(always)]
            pub(crate) fn logistic_loss_body<const FMA: bool>(
                xs: &[$t],
                center: $t,
                scale: $t,
                target: &[$t],
                dldx: &mut [$t],
            ) -> f64 {
                let mut lanes = [0.0f64; SUM_LANES];
                let mut tail = 0.0f64;
                let mut squares = [0.0f64; LOSS_BLOCK];
                for ((x, zt), d) in xs
                    .chunks(LOSS_BLOCK)
                    .zip(target.chunks(LOSS_BLOCK))
                    .zip(dldx.chunks_mut(LOSS_BLOCK))
                {
                    let squares = &mut squares[..x.len()];
                    for (((sq, d), &x), &zt) in squares.iter_mut().zip(d).zip(x).zip(zt) {
                        let z = logistic_with::<FMA>(scale * (x - center));
                        let e = z - zt;
                        // Squared in f64 whatever the element type.
                        let wide = f64::from(e);
                        *sq = wide * wide;
                        *d = 2.0 * e * (scale * z * (1.0 - z));
                    }
                    // The order of the additions depends on the pixel index
                    // alone, not on vector width, alignment, dispatch or
                    // element type.
                    let mut quads = squares.chunks_exact(SUM_LANES);
                    for quad in &mut quads {
                        for (lane, sq) in lanes.iter_mut().zip(quad) {
                            *lane += sq;
                        }
                    }
                    // Only the last block can leave a remainder.
                    for sq in quads.remainder() {
                        tail += sq;
                    }
                }
                (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
            }

            // The two slice kernels' `FMA = true` bodies compiled per
            // instruction set: safe Rust, the same IEEE operations on every
            // lane of either width.

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            pub(crate) fn logistic_scaled_256(xs: &[$t], center: $t, scale: $t, out: &mut [$t]) {
                logistic_scaled_body::<true>(xs, center, scale, out)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            pub(crate) fn logistic_scaled_512(xs: &[$t], center: $t, scale: $t, out: &mut [$t]) {
                logistic_scaled_body::<true>(xs, center, scale, out)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            pub(crate) fn logistic_loss_256(
                xs: &[$t],
                center: $t,
                scale: $t,
                target: &[$t],
                dldx: &mut [$t],
            ) -> f64 {
                logistic_loss_body::<true>(xs, center, scale, target, dldx)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            pub(crate) fn logistic_loss_512(
                xs: &[$t],
                center: $t,
                scale: $t,
                target: &[$t],
                dldx: &mut [$t],
            ) -> f64 {
                logistic_loss_body::<true>(xs, center, scale, target, dldx)
            }
        }
    };
}

logistic_kernels! {
    sweeps_f64, f64, u64, 52, 1023,
    // exp(-708) is about 3.3e-308.
    floor: -708.0,
    magic: 6_755_399_441_055_744.0,
    // The high part carries 32 significant bits: k * hi is exact for
    // |k| < 2^20.
    ln2: (
        f64::from_bits(0x3fe6_2e42_fee0_0000),
        f64::from_bits(0x3dea_39ef_3579_3c76)
    ),
    log2e: std::f64::consts::LOG2_E,
    // Degree 13: truncation below 4e-18.
    taylor: [
        1.0 / 6_227_020_800.0,
        1.0 / 479_001_600.0,
        1.0 / 39_916_800.0,
        1.0 / 3_628_800.0,
        1.0 / 362_880.0,
        1.0 / 40_320.0,
        1.0 / 5_040.0,
        1.0 / 720.0,
        1.0 / 120.0,
        1.0 / 24.0,
        1.0 / 6.0,
        1.0 / 2.0,
    ]
}

logistic_kernels! {
    sweeps_f32, f32, u32, 23, 127,
    // exp(-86) is about 4.5e-38: k >= -124, so p * 2^k stays normal.
    floor: -86.0,
    magic: 12_582_912.0,
    // The high part carries 9 significant bits: k * hi is exact for
    // |k| < 2^15.
    ln2: (0.693_359_4, -2.121_944_4e-4),
    log2e: std::f32::consts::LOG2_E,
    // Degree 7: truncation below 6e-9, a tenth of an ulp.
    taylor: [
        1.0 / 5_040.0,
        1.0 / 720.0,
        1.0 / 120.0,
        1.0 / 24.0,
        1.0 / 6.0,
        1.0 / 2.0,
    ]
}

#[cfg(test)]
use sweeps_f64::{logistic_loss_body, logistic_scaled_body, EXP_FLOOR};

/// The per-block oracle butterfly at either element type, for `plan.rs`.
#[cfg(all(test, target_arch = "x86_64"))]
pub(crate) fn butterfly_block_x86<T: Float>(
    lo: &mut [Complex<T>],
    hi: &mut [Complex<T>],
    tw: &[Complex<T>],
) {
    T::butterfly_block_x86(lo, hi, tw)
}

/// The per-type hooks, one impl per element type.
macro_rules! kernels_impl {
    (
        $t:ty, $sweeps:ident, $first:ident, $first_from:ident,
        $lanes256:ident, $lanes512:ident, $min_512:expr
    ) => {
        impl Kernels for $t {
            #[cfg(target_arch = "x86_64")]
            unsafe fn first_pass_vector(data: &mut [Complex<Self>], inverse: bool) {
                // SAFETY: the caller's contract is the callee's.
                unsafe { x86::$first(data, inverse) }
            }

            #[cfg(target_arch = "x86_64")]
            unsafe fn first_pass_from_vector(
                starts: &[u32],
                src: &[Complex<Self>],
                first: usize,
                stride: usize,
                dst: &mut [Complex<Self>],
                inverse: bool,
            ) {
                // SAFETY: the caller's contract is the callee's, the whole
                // order's quads at once.
                unsafe { x86::$first_from(starts, starts.len(), src, first, stride, dst, inverse) }
            }

            #[cfg(target_arch = "x86_64")]
            unsafe fn fused_pass_vector(
                isa: Isa,
                data: &mut [Complex<Self>],
                tw: &[Complex<Self>],
            ) {
                // SAFETY (every arm): the caller vouches that the probe
                // cleared `isa` on this CPU, and `avx512f` is only ever
                // cleared together with `avx2,fma`; the lengths are those
                // `fused_pass` asserted, and the 512-bit stamp runs only
                // when a quarter block fills its register.
                match isa {
                    Isa::Avx512f if 2 * (tw.len() / 3) >= $min_512 => unsafe {
                        $lanes512::fused_pass(data, tw)
                    },
                    Isa::Avx512f | Isa::Avx2Fma => unsafe { $lanes256::fused_pass(data, tw) },
                    Isa::Portable => unreachable!("the portable body is not a vector body"),
                }
            }

            #[cfg(target_arch = "x86_64")]
            unsafe fn single_pass_vector(
                isa: Isa,
                data: &mut [Complex<Self>],
                tw: &[Complex<Self>],
            ) {
                // SAFETY (every arm): as in `fused_pass_vector`.
                match isa {
                    Isa::Avx512f if 2 * tw.len() >= $min_512 => unsafe {
                        $lanes512::single_pass(data, tw)
                    },
                    Isa::Avx512f | Isa::Avx2Fma => unsafe { $lanes256::single_pass(data, tw) },
                    Isa::Portable => unreachable!("the portable body is not a vector body"),
                }
            }

            fn logistic_scaled_on(
                body: Body,
                xs: &[Self],
                center: Self,
                scale: Self,
                out: &mut [Self],
            ) {
                match body.isa {
                    // SAFETY (both arms): the probe verified the arm's
                    // features on this CPU before it made the body.
                    #[cfg(target_arch = "x86_64")]
                    Isa::Avx2Fma => unsafe { $sweeps::logistic_scaled_256(xs, center, scale, out) },
                    #[cfg(target_arch = "x86_64")]
                    Isa::Avx512f => unsafe { $sweeps::logistic_scaled_512(xs, center, scale, out) },
                    Isa::Portable => $sweeps::logistic_scaled_body::<false>(xs, center, scale, out),
                }
            }

            fn logistic_loss_on(
                body: Body,
                xs: &[Self],
                center: Self,
                scale: Self,
                target: &[Self],
                dldx: &mut [Self],
            ) -> f64 {
                match body.isa {
                    // SAFETY (both arms): the probe verified the arm's
                    // features on this CPU before it made the body.
                    #[cfg(target_arch = "x86_64")]
                    Isa::Avx2Fma => unsafe {
                        $sweeps::logistic_loss_256(xs, center, scale, target, dldx)
                    },
                    #[cfg(target_arch = "x86_64")]
                    Isa::Avx512f => unsafe {
                        $sweeps::logistic_loss_512(xs, center, scale, target, dldx)
                    },
                    Isa::Portable => {
                        $sweeps::logistic_loss_body::<false>(xs, center, scale, target, dldx)
                    }
                }
            }

            #[cfg(all(test, target_arch = "x86_64"))]
            fn butterfly_block_x86(
                lo: &mut [Complex<Self>],
                hi: &mut [Complex<Self>],
                tw: &[Complex<Self>],
            ) {
                assert_eq!(lo.len(), hi.len());
                assert_eq!(lo.len(), tw.len());
                assert!(lo.len().is_multiple_of(4));
                assert_ne!(Body::probed(), Body::PORTABLE);
                // SAFETY: a non-portable probe means avx2+fma, verified
                // just above; the three slices share a length that is a
                // multiple of four complex values, one register of the
                // `f32` stamp and two of the `f64` one.
                unsafe { $lanes256::butterfly_block(lo, hi, tw) }
            }
        }
    };
}

kernels_impl!(
    f64,
    sweeps_f64,
    first_pass_f64,
    first_pass_from_f64,
    lanes256,
    lanes512,
    8
);
kernels_impl!(
    f32,
    sweeps_f32,
    first_pass_f32,
    first_pass_from_f32,
    lanes256_f32,
    lanes512_f32,
    16
);

/// [`logistic_scaled`] on a given body (equal lengths checked by the caller).
fn logistic_scaled_on<T: Float>(body: Body, xs: &[T], center: T, scale: T, out: &mut [T]) {
    T::logistic_scaled_on(body, xs, center, scale, out)
}

/// [`logistic_loss`] on a given body (equal lengths checked by the caller).
fn logistic_loss_on<T: Float>(
    body: Body,
    xs: &[T],
    center: T,
    scale: T,
    target: &[T],
    dldx: &mut [T],
) -> f64 {
    T::logistic_loss_on(body, xs, center, scale, target, dldx)
}

/// The logistic function `1 / (1 + exp(-x))`: the scalar form of
/// [`logistic_scaled`], bit-identical to its `f64` instance on any one
/// machine.
///
/// Saturates instead of over- or underflowing (`logistic(-inf)` is about
/// `3e-308`, `logistic(inf)` is 1) and returns NaN for NaN.
///
/// # Examples
///
/// ```
/// use ilt_fft::logistic;
///
/// assert_eq!(logistic(0.0), 0.5);
/// assert!((logistic(2.0) + logistic(-2.0) - 1.0).abs() < 1e-15);
/// assert!(logistic(f64::NAN).is_nan());
/// ```
pub fn logistic(x: f64) -> f64 {
    let mut out = [0.0];
    logistic_scaled(&[x], 0.0, 1.0, &mut out);
    out[0]
}

/// `out[i] = logistic(scale * (xs[i] - center))` — the latent-to-mask map
/// of pixel ILT (`center = 0`, which is exact: `x - 0` is `x`) and the
/// resist's wafer image (`center` the threshold), in either element type.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn logistic_scaled<T: Float>(xs: &[T], center: T, scale: T, out: &mut [T]) {
    assert_eq!(xs.len(), out.len(), "logistic_scaled: length mismatch");
    logistic_scaled_on(Body::probed(), xs, center, scale, out)
}

/// The sigmoid-relaxed squared-error objective in one sweep: with
/// `z_i = logistic(scale * (xs[i] - center))`, returns
/// `sum_i (z_i - target[i])^2` and writes its derivative
/// `dldx[i] = 2 (z_i - target[i]) . scale . z_i (1 - z_i)`.
///
/// Each squared error is formed and summed in `f64` whatever `T` is, in
/// four interleaved partial sums combined in a fixed order, so the sum is a
/// function of the values alone (not of the slices' alignment or the lane
/// width, and the same on every compiled body given the same `z`). A NaN
/// input yields a NaN sum.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn logistic_loss<T: Float>(xs: &[T], center: T, scale: T, target: &[T], dldx: &mut [T]) -> f64 {
    assert_eq!(xs.len(), target.len(), "logistic_loss: length mismatch");
    assert_eq!(xs.len(), dldx.len(), "logistic_loss: length mismatch");
    logistic_loss_on(Body::probed(), xs, center, scale, target, dldx)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The line a cross-body test prints, so a green log says which bodies
    /// the host let it cover.
    pub(crate) fn covered(what: &str) -> String {
        let names: Vec<&str> = Body::supported().iter().map(|b| b.name()).collect();
        format!("bodies covered ({what}): {}", names.join(" "))
    }

    #[test]
    fn the_probe_is_stable_and_picks_the_widest_supported_body() {
        assert_eq!(Body::probed(), Body::probed());
        assert_eq!(Body::supported().first(), Some(&Body::PORTABLE));
        assert_eq!(Body::supported().last(), Some(&Body::probed()));
        assert_eq!(body_name(), Body::probed().name());
        println!("kernel body: {}; {}", body_name(), covered("probe"));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn kernel_matches_scalar_butterfly() {
        if Body::probed() == Body::PORTABLE {
            return;
        }
        let n = 8;
        let mk = |s: f64| -> Vec<Complex> {
            (0..n)
                .map(|i| Complex::new((i as f64 * s).sin(), (i as f64 * s + 0.3).cos()))
                .collect()
        };
        let (lo0, hi0, tw) = (mk(0.7), mk(1.3), mk(2.1));
        let mut lo = lo0.clone();
        let mut hi = hi0.clone();
        butterfly_block_x86(&mut lo, &mut hi, &tw);
        for k in 0..n {
            let t = tw[k] * hi0[k];
            assert!((lo[k] - (lo0[k] + t)).abs() < 1e-12);
            assert!((hi[k] - (lo0[k] - t)).abs() < 1e-12);
        }
    }

    /// The `f64::exp` form the polynomial replaces, kept as the reference.
    fn logistic_reference(x: f64) -> f64 {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    }

    /// Distance in units in the last place (both finite, same sign).
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// Vector bodies plus every tail length an AVX2 or SSE2 loop can leave.
    const LENGTHS: [usize; 5] = [0, 1, 3, 7, 65_537];

    /// `len` points sweeping `[-40, 40]`, no two sweeps alike.
    fn sweep(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| -40.0 + 80.0 * (i as f64 + 0.37) / len as f64)
            .collect()
    }

    #[test]
    fn logistic_is_within_two_ulp_of_the_exp_form() {
        for len in LENGTHS {
            let xs = sweep(len);
            let mut dispatched = vec![0.0; len];
            logistic_scaled(&xs, 0.0, 1.0, &mut dispatched);
            for (&x, &d) in xs.iter().zip(&dispatched) {
                assert_eq!(d, logistic(x), "scalar form differs at x={x}");
            }
            // Whichever body the probe picked, every other one agrees.
            for body in Body::supported() {
                let mut on_body = vec![0.0; len];
                logistic_scaled_on(body, &xs, 0.0, 1.0, &mut on_body);
                for ((&x, &b), &d) in xs.iter().zip(&on_body).zip(&dispatched) {
                    let reference = logistic_reference(x);
                    assert!(ulps(b, reference) <= 2, "x={x}: {b:e} vs {reference:e}");
                    assert!(ulps(b, d) <= 2, "{body:?} x={x}: {b:e} vs {d:e}");
                }
            }
        }
        // Centre and scale are applied before the logistic, nothing more.
        let xs = sweep(33);
        let mut scaled = vec![0.0; 33];
        logistic_scaled(&xs, 0.0, 0.25, &mut scaled);
        for (&x, &z) in xs.iter().zip(&scaled) {
            assert_eq!(z, logistic(0.25 * x));
        }
        logistic_scaled(&xs, 1.5, 0.25, &mut scaled);
        for (&x, &z) in xs.iter().zip(&scaled) {
            assert_eq!(z, logistic(0.25 * (x - 1.5)));
        }
    }

    #[test]
    fn logistic_saturates_and_keeps_nan() {
        assert_eq!(logistic(0.0), 0.5);
        for big in [800.0, 1e300, f64::INFINITY] {
            let (hi, lo) = (logistic(big), logistic(-big));
            assert!(hi.is_finite() && (1.0 - hi).abs() < 1e-300, "{hi:e}");
            assert!(lo.is_finite() && (0.0..1e-300).contains(&lo), "{lo:e}");
        }
        assert!(logistic(f64::NAN).is_nan());
        assert!(logistic_scaled_body_scalar::<false>(f64::NAN).is_nan());
        assert!(logistic_scaled_body_scalar::<true>(f64::NAN).is_nan());
        // Monotone through the switch between the two one-sided forms.
        assert!(logistic(-1e-9) < 0.5 && logistic(1e-9) > 0.5);
    }

    /// One value through a body chosen by hand (the `FMA = true` body is
    /// plain Rust; only its speed needs the instruction).
    fn logistic_scaled_body_scalar<const FMA: bool>(x: f64) -> f64 {
        let mut out = [0.0];
        logistic_scaled_body::<FMA>(&[x], 0.0, 1.0, &mut out);
        out[0]
    }

    #[test]
    fn loss_sweep_matches_the_naive_sum() {
        let (center, scale) = (0.32, 32.0);
        for len in LENGTHS {
            let xs: Vec<f64> = sweep(len).iter().map(|v| 0.3 + v / 80.0).collect();
            let target: Vec<f64> = (0..len).map(|i| (i % 3 == 0) as u8 as f64).collect();
            let mut dldx = vec![0.0; len];
            let value = logistic_loss(&xs, center, scale, &target, &mut dldx);
            let mut portable_dldx = vec![0.0; len];
            let portable =
                logistic_loss_body::<false>(&xs, center, scale, &target, &mut portable_dldx);

            let mut naive = 0.0;
            for i in 0..len {
                let z = logistic(scale * (xs[i] - center));
                let e = z - target[i];
                naive += e * e;
                assert_eq!(
                    dldx[i],
                    2.0 * e * (scale * z * (1.0 - z)),
                    "len {len} pixel {i}"
                );
                assert!((dldx[i] - portable_dldx[i]).abs() <= 1e-13 * scale);
            }
            assert!(
                (value - naive).abs() <= 1e-12 * naive,
                "len {len}: {value} vs {naive}"
            );
            assert!((value - portable).abs() <= 1e-12 * naive);

            // Same values at another alignment: same sum, bit for bit.
            let shift = |v: &[f64]| -> Vec<f64> {
                let mut moved = vec![0.0; v.len() + 1];
                moved[1..].copy_from_slice(v);
                moved
            };
            let (xs2, target2, mut dldx2) = (shift(&xs), shift(&target), shift(&dldx));
            let moved = logistic_loss(&xs2[1..], center, scale, &target2[1..], &mut dldx2[1..]);
            assert_eq!(value.to_bits(), moved.to_bits(), "len {len}");
            assert_eq!(dldx, dldx2[1..]);
        }
        // A diverged pixel must not vanish into the sum.
        let mut xs = vec![0.4; 1000];
        xs[777] = f64::NAN;
        let mut dldx = vec![0.0; 1000];
        assert!(logistic_loss(&xs, center, scale, &vec![1.0; 1000], &mut dldx).is_nan());
    }

    /// Latents no sweep produces but a diverged solve can: non-finite
    /// values, the `exp` floor to either side, subnormals and signed zeros
    /// among order-one values, `len` of them.
    fn hostile(len: usize) -> Vec<f64> {
        let special = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            EXP_FLOOR,
            EXP_FLOOR.next_up(),
            EXP_FLOOR.next_down(),
            -EXP_FLOOR,
            f64::MIN_POSITIVE * 0.25,
            -f64::MIN_POSITIVE * 0.25,
            0.0,
            -0.0,
            1e300,
        ];
        (0..len)
            .map(|i| match i % 3 {
                0 => special[(i / 3) % special.len()],
                _ => -40.0 + 80.0 * (i as f64 * 0.618_033_988_75).fract(),
            })
            .collect()
    }

    /// The same fused operations lane for lane: on every length a 4- or
    /// 8-lane loop treats differently, hostile inputs included, the two
    /// vector bodies' masks, derivatives and loss agree in every bit.
    #[test]
    fn logistic_kernels_are_bit_identical_across_the_vector_bodies() {
        let vector: Vec<Body> = Body::supported()
            .into_iter()
            .filter(|&b| b != Body::PORTABLE)
            .collect();
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        for len in [1, 7, 9, 255, 257, 65_536] {
            // Centre 0 and scale 1 leave the hostile values as they are.
            for (xs, center, scale) in [(hostile(len), 0.0, 1.0), (sweep(len), 0.32, 32.0)] {
                let target: Vec<f64> = (0..len).map(|i| (i % 3 == 0) as u8 as f64).collect();
                let outputs: Vec<_> = vector
                    .iter()
                    .map(|&body| {
                        let mut z = vec![0.0; len];
                        logistic_scaled_on(body, &xs, center, scale, &mut z);
                        let mut dldx = vec![0.0; len];
                        let loss = logistic_loss_on(body, &xs, center, scale, &target, &mut dldx);
                        (bits(&z), bits(&dldx), loss.to_bits())
                    })
                    .collect();
                for pair in outputs.windows(2) {
                    assert!(pair[0] == pair[1], "len {len} scale {scale}");
                }
            }
        }
        println!("{}", covered("logistic sweeps"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_slices_panic() {
        logistic_scaled(&[0.0; 3], 0.0, 1.0, &mut [0.0; 2]);
    }

    // ---- The single-precision sweeps ------------------------------------

    /// Distance in units in the last place between two `f32`s (both
    /// finite, same sign).
    fn ulps32(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn f32_logistic_is_within_two_ulp_of_the_rounded_f64_form() {
        for len in LENGTHS {
            let wide = sweep(len);
            let xs: Vec<f32> = wide.iter().map(|&x| x as f32).collect();
            for body in Body::supported() {
                let mut z = vec![0.0f32; len];
                logistic_scaled_on(body, &xs, 0.0, 1.0, &mut z);
                for (&x, &got) in xs.iter().zip(&z) {
                    let want = logistic_reference(f64::from(x)) as f32;
                    assert!(
                        ulps32(got, want) <= 2,
                        "{body:?} x={x}: {got:e} vs {want:e}"
                    );
                }
            }
        }
        let mut out = [0.0f32; 4];
        let far = [f32::NEG_INFINITY, -1e30, 1e30, f32::NAN];
        logistic_scaled(&far, 0.0, 1.0, &mut out);
        assert!(out[0].is_finite() && (0.0..1e-37).contains(&out[0]));
        assert!(out[1].is_finite() && (0.0..1e-37).contains(&out[1]));
        assert_eq!(out[2], 1.0);
        assert!(out[3].is_nan());
    }

    #[test]
    fn f32_loss_sweep_sums_in_f64_and_matches_the_naive_sum() {
        let (center, scale) = (0.32f32, 32.0f32);
        for len in LENGTHS {
            let xs: Vec<f32> = sweep(len).iter().map(|v| (0.3 + v / 80.0) as f32).collect();
            let target: Vec<f32> = (0..len).map(|i| (i % 3 == 0) as u8 as f32).collect();
            let mut dldx = vec![0.0f32; len];
            let value = logistic_loss(&xs, center, scale, &target, &mut dldx);
            let mut naive = 0.0f64;
            for i in 0..len {
                let mut z = [0.0f32];
                logistic_scaled(&xs[i..=i], center, scale, &mut z);
                let e = z[0] - target[i];
                naive += f64::from(e) * f64::from(e);
                assert_eq!(
                    dldx[i].to_bits(),
                    (2.0 * e * (scale * z[0] * (1.0 - z[0]))).to_bits(),
                    "len {len} pixel {i}"
                );
            }
            assert!(
                (value - naive).abs() <= 1e-12 * naive,
                "len {len}: {value} vs {naive}"
            );
        }
        let mut xs = vec![0.4f32; 1000];
        xs[777] = f32::NAN;
        let mut dldx = vec![0.0f32; 1000];
        assert!(logistic_loss(&xs, 0.32, 32.0, &vec![1.0; 1000], &mut dldx).is_nan());
    }

    /// [`hostile`] at single precision, with the `f32` floor's neighbours.
    fn hostile32(len: usize) -> Vec<f32> {
        let floor = sweeps_f32::EXP_FLOOR;
        let special = [floor, floor.next_up(), floor.next_down(), -floor];
        hostile(len)
            .iter()
            .enumerate()
            .map(|(i, &x)| match i % 7 {
                6 => special[(i / 7) % special.len()],
                _ => x as f32,
            })
            .collect()
    }

    /// The `f32` twin of the `f64` cross-body test: the same fused
    /// operations lane for lane, so the two vector bodies' masks,
    /// derivatives and loss agree in every bit.
    #[test]
    fn f32_logistic_kernels_are_bit_identical_across_the_vector_bodies() {
        let vector: Vec<Body> = Body::supported()
            .into_iter()
            .filter(|&b| b != Body::PORTABLE)
            .collect();
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        for len in [1, 7, 9, 15, 17, 255, 257, 65_536] {
            for (xs, center, scale) in [
                (hostile32(len), 0.0, 1.0),
                (sweep(len).iter().map(|&x| x as f32).collect(), 0.32, 32.0),
            ] {
                let target: Vec<f32> = (0..len).map(|i| (i % 3 == 0) as u8 as f32).collect();
                let outputs: Vec<_> = vector
                    .iter()
                    .map(|&body| {
                        let mut z = vec![0.0f32; len];
                        logistic_scaled_on(body, &xs, center, scale, &mut z);
                        let mut dldx = vec![0.0f32; len];
                        let loss = logistic_loss_on(body, &xs, center, scale, &target, &mut dldx);
                        (bits(&z), bits(&dldx), loss.to_bits())
                    })
                    .collect();
                for pair in outputs.windows(2) {
                    assert!(pair[0] == pair[1], "len {len} scale {scale}");
                }
            }
        }
        println!("{}", covered("f32 logistic sweeps"));
    }
}
