//! Compact binary serialization for ciphertexts.
//!
//! FHE's deployment story is "ship ciphertexts to an untrusted server", so a
//! wire format is part of the library surface. Coefficients are packed as
//! **u32** — the paper's 32-bit word size (and the compact layout Cheddar
//! \[32\] credits for part of its performance) — so a ciphertext costs
//! `2 · (ℓ+1) · N · 4` bytes on the wire, half of a u64 layout.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "WDR1" | kind u8 | level u32 | scale f64 | limbs u32 | degree u32
//! then per limb: q u64 | degree × u32 coefficients        (component c0)
//! then component c1
//! ```
//!
//! Coefficients cross the wire in memory order. Everything this crate
//! serializes is in the NTT domain, so that is the **bit-reversed
//! evaluation order** of `wd_polyring::ntt` (slot `i` holds the evaluation
//! at ψ^{2·brv(i)+1}); the format carries no order marker, and both ends
//! must agree on it the way they agree on the primes.
//!
//! The codec moves whole limbs: the encoder reserves the exact size and
//! packs each limb straight into the destination, the decoder checks that
//! the declared shape fits the bytes present *before* leasing anything for
//! it, then widens, range-checks and stores each limb in one pass.
//!
//! Decoded limbs live in the [`wire_pool`]: a process-wide arena, separate
//! from the compute arenas, that a decoded polynomial returns its storage
//! to when it is dropped — on whichever thread that happens. A served
//! request's operands, its HAdd/HSub result (`Poly::add` leases from the
//! first operand's pool) and a client's decoded response therefore recycle
//! the same few slabs instead of freeing and refaulting heap on every
//! request. Nothing else enters the pool: a clone, or any polynomial built
//! another way, is plain heap.

use std::sync::{Arc, LazyLock};

use crate::cipher::Ciphertext;
use crate::CkksError;
use wd_modmath::lanes::{dispatch, Kernel};
use wd_polyring::rns::{Domain, RnsPoly};
use wd_polyring::scratch::ScratchArena;
use wd_polyring::Poly;

/// Bytes the [`wire_pool`] keeps parked between decodes. One SET-B request
/// in flight holds about 3.5 MiB of wire limbs (two operands and the result
/// on the server, the decoded response on the client), so this serves a
/// few such requests at once; a limb that does not fit is plain heap.
pub const WIRE_POOL_BYTES: u64 = 16 << 20;

static WIRE_POOL: LazyLock<Arc<ScratchArena>> =
    LazyLock::new(|| ScratchArena::named(WIRE_POOL_BYTES, "wire_pool"));

/// The arena every decoded limb is leased from. It traces as
/// `wire_pool.lease`, `wire_pool.reuse`, … and its [`ScratchArena::stats`]
/// show whether a steady stream of requests still allocates.
pub fn wire_pool() -> &'static ScratchArena {
    &WIRE_POOL
}

const MAGIC: &[u8; 4] = b"WDR1";
/// magic | kind | level | scale | limbs | degree.
const HEADER_BYTES: usize = 4 + 1 + 4 + 8 + 4 + 4;
const KIND_CIPHERTEXT: u8 = 1;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkksError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| CkksError::WireDecode("truncated wire data".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CkksError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CkksError> {
        // invariant: take(4) returns exactly 4 bytes or Err above — the
        // slice-to-array conversion is statically infallible here.
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CkksError> {
        // invariant: take(8) returns exactly 8 bytes or Err above.
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, CkksError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

/// Bytes [`write_poly`] appends for `p`.
fn poly_wire_len(p: &RnsPoly) -> usize {
    p.limb_count() * (8 + 4 * p.degree())
}

/// Packs reduced coefficients into little-endian `u32` words, through the
/// lane dispatch.
struct Pack<'a> {
    words: &'a mut [u8],
    coeffs: &'a [u64],
}

impl Kernel for Pack<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        for (word, &c) in self.words.chunks_exact_mut(4).zip(self.coeffs) {
            debug_assert!(c < (1 << 32), "word-size coefficient");
            word.copy_from_slice(&(c as u32).to_le_bytes());
        }
    }
}

fn write_poly(out: &mut Vec<u8>, p: &RnsPoly) {
    for limb in p.limbs() {
        put_u64(out, limb.modulus().value());
        let at = out.len();
        out.resize(at + 4 * limb.degree(), 0);
        dispatch(Pack {
            words: &mut out[at..],
            coeffs: limb.coeffs(),
        });
    }
}

/// Coefficients widened per block of [`WidenChecked`]: the block just
/// written (2 KiB) is still in L1 when it is range-checked.
const WIDEN_BLOCK: usize = 256;

/// Appends the little-endian `u32` words of `words` to `out` widened to
/// `u64`, and returns whether every one is below `q`. One pass over the
/// frame, through the lane dispatch: each block is widened and stored,
/// then checked while it is hot. The two stay separate loops: folding the
/// check into the widen kept the loop scalar, about 3× slower per SET-B
/// limb at the baseline target.
struct WidenChecked<'a> {
    words: &'a [u8],
    q: u64,
    out: &'a mut Vec<u64>,
}

impl Kernel for WidenChecked<'_> {
    type Output = bool;
    #[inline(always)]
    fn run(self) -> bool {
        let (q, out) = (self.q, self.out);
        let mut ok = true;
        for block in self.words.chunks(4 * WIDEN_BLOCK) {
            let start = out.len();
            out.extend(block.chunks_exact(4).map(|w| {
                // invariant: chunks_exact(4) yields exactly 4 bytes.
                u64::from(u32::from_le_bytes(w.try_into().expect("4 bytes")))
            }));
            ok &= out[start..].iter().fold(true, |ok, &c| ok & (c < q));
        }
        ok
    }
}

fn read_poly(
    r: &mut Reader<'_>,
    limbs: usize,
    degree: usize,
    domain: Domain,
) -> Result<RnsPoly, CkksError> {
    // The header is untrusted: make sure the shape it declares fits the
    // bytes that are actually there before reserving anything for it.
    let limb_bytes = degree.checked_mul(4);
    let fits = limb_bytes
        .and_then(|b| b.checked_add(8))
        .and_then(|b| b.checked_mul(limbs))
        .is_some_and(|need| need <= r.buf.len() - r.pos);
    let (true, Some(limb_bytes)) = (fits, limb_bytes) else {
        return Err(CkksError::WireDecode("truncated wire data".into()));
    };
    let pool = wire_pool();
    let mut polys = Vec::with_capacity(limbs);
    for _ in 0..limbs {
        let q = r.u64()?;
        let words = r.take(limb_bytes)?;
        // Widen, range-check and store in one pass; only a bad limb is
        // searched again for the coefficient to name.
        let mut coeffs = pool.take_empty(degree);
        let ok = dispatch(WidenChecked {
            words,
            q,
            out: &mut coeffs,
        });
        if !ok {
            let c = *coeffs
                .iter()
                .find(|&&c| c >= q)
                .expect("a coefficient failed");
            pool.give_vec(coeffs);
            return Err(CkksError::WireDecode(format!(
                "wire coefficient {c} out of range for modulus {q}"
            )));
        }
        polys.push(
            Poly::from_pooled(q, coeffs, pool).map_err(|e| CkksError::WireDecode(e.to_string()))?,
        );
    }
    RnsPoly::from_limbs(polys, domain).map_err(|e| CkksError::WireDecode(e.to_string()))
}

/// Bytes [`ciphertext_to_bytes`] produces for `ct`.
pub fn ciphertext_wire_len(ct: &Ciphertext) -> usize {
    HEADER_BYTES + poly_wire_len(&ct.c0) + poly_wire_len(&ct.c1)
}

fn write_ciphertext(out: &mut Vec<u8>, ct: &Ciphertext) {
    out.reserve(ciphertext_wire_len(ct));
    out.extend_from_slice(MAGIC);
    out.push(KIND_CIPHERTEXT);
    put_u32(out, ct.level as u32);
    put_u64(out, ct.scale.to_bits());
    put_u32(out, ct.c0.limb_count() as u32);
    put_u32(out, ct.degree() as u32);
    write_poly(out, &ct.c0);
    write_poly(out, &ct.c1);
}

/// Serializes a ciphertext (NTT domain assumed, as produced by this crate).
pub fn ciphertext_to_bytes(ct: &Ciphertext) -> Vec<u8> {
    let mut out = Vec::new();
    write_ciphertext(&mut out, ct);
    out
}

/// Deserializes a ciphertext.
///
/// # Errors
///
/// Returns [`CkksError::WireDecode`] on truncation, bad magic, wrong kind, or
/// out-of-range coefficients (every coefficient is validated against its
/// limb modulus).
pub fn ciphertext_from_bytes(buf: &[u8]) -> Result<Ciphertext, CkksError> {
    let mut r = Reader { buf, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(CkksError::WireDecode("bad wire magic".into()));
    }
    if r.u8()? != KIND_CIPHERTEXT {
        return Err(CkksError::WireDecode("not a ciphertext".into()));
    }
    let level = r.u32()? as usize;
    let scale = r.f64()?;
    if !scale.is_finite() || scale <= 0.0 {
        return Err(CkksError::WireDecode("invalid scale on wire".into()));
    }
    let limbs = r.u32()? as usize;
    let degree = r.u32()? as usize;
    if limbs == 0 || limbs != level + 1 || !degree.is_power_of_two() || degree < 4 {
        return Err(CkksError::WireDecode("inconsistent wire header".into()));
    }
    let c0 = read_poly(&mut r, limbs, degree, Domain::Ntt)?;
    let c1 = read_poly(&mut r, limbs, degree, Domain::Ntt)?;
    if r.pos != buf.len() {
        return Err(CkksError::WireDecode("trailing wire bytes".into()));
    }
    Ok(Ciphertext {
        c0,
        c1,
        level,
        scale,
    })
}

// ---------------------------------------------------------------------------
// Length-prefixed frames (multi-object messages)
// ---------------------------------------------------------------------------

/// Appends a length-prefixed ciphertext frame (`u32 len | ciphertext
/// bytes`) to `out`. The base format is deliberately *not* self-delimiting
/// (trailing bytes are a decode error), so composite messages — a serving
/// request carrying two operand ciphertexts, a response carrying one —
/// frame each object with an explicit length instead.
pub fn write_ciphertext_frame(out: &mut Vec<u8>, ct: &Ciphertext) {
    put_u32(out, ciphertext_wire_len(ct) as u32);
    write_ciphertext(out, ct);
}

/// Bytes [`write_ciphertext_frame`] appends for `ct` — what a composite
/// encoder reserves up front.
pub fn ciphertext_frame_len(ct: &Ciphertext) -> usize {
    4 + ciphertext_wire_len(ct)
}

/// Reads the length-prefixed ciphertext frame starting at `*pos`, advancing
/// `*pos` past it on success (`*pos` is untouched on error).
///
/// # Errors
///
/// [`CkksError::WireDecode`] on truncation (of the prefix or the payload)
/// or any payload validation failure from [`ciphertext_from_bytes`].
pub fn read_ciphertext_frame(buf: &[u8], pos: &mut usize) -> Result<Ciphertext, CkksError> {
    let mut r = Reader { buf, pos: *pos };
    let len = r.u32()? as usize;
    let payload = r.take(len)?;
    let ct = ciphertext_from_bytes(payload)?;
    *pos = r.pos;
    Ok(ct)
}

/// Longest label [`write_label_frame`] accepts, in bytes.
pub const MAX_LABEL_BYTES: usize = 64;

/// Writes a short length-prefixed UTF-8 label (one `u8` length, then the
/// bytes). Labels name routing metadata — tenant ids in serve frames — so
/// they are capped at [`MAX_LABEL_BYTES`] bytes.
///
/// # Errors
///
/// [`CkksError::WireDecode`] when the label is longer than the cap (the
/// frame would misdeclare its length).
pub fn write_label_frame(out: &mut Vec<u8>, label: &str) -> Result<(), CkksError> {
    let bytes = label.as_bytes();
    if bytes.len() > MAX_LABEL_BYTES {
        return Err(CkksError::WireDecode(format!(
            "label of {} bytes exceeds the {MAX_LABEL_BYTES}-byte cap",
            bytes.len()
        )));
    }
    out.push(bytes.len() as u8);
    out.extend_from_slice(bytes);
    Ok(())
}

/// Reads a label written by [`write_label_frame`], advancing `*pos` past it
/// on success (`*pos` is untouched on error).
///
/// # Errors
///
/// [`CkksError::WireDecode`] on truncation, an over-cap declared length, or
/// non-UTF-8 bytes.
pub fn read_label_frame(buf: &[u8], pos: &mut usize) -> Result<String, CkksError> {
    let mut r = Reader { buf, pos: *pos };
    let len = r.u8()? as usize;
    if len > MAX_LABEL_BYTES {
        return Err(CkksError::WireDecode(format!(
            "label length {len} exceeds the {MAX_LABEL_BYTES}-byte cap"
        )));
    }
    let bytes = r.take(len)?;
    let label = std::str::from_utf8(bytes)
        .map_err(|_| CkksError::WireDecode("label is not UTF-8".into()))?
        .to_string();
    *pos = r.pos;
    Ok(label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CkksContext, ParamSet};

    #[test]
    fn widen_and_pack_match_the_scalar_oracle_at_every_level() {
        use wd_modmath::lanes::{run_at, Level};
        let q: u64 = (1 << 30) - 35;
        for len in [1, 15, 17, WIDEN_BLOCK + 3, 7 * WIDEN_BLOCK + 1] {
            let mix: Vec<u64> = (0..len as u64).map(|i| (i * 2654435761 + 5) % q).collect();
            for coeffs in [mix, vec![q - 1; len], vec![0; len]] {
                let want: Vec<u8> = coeffs
                    .iter()
                    .flat_map(|&c| (c as u32).to_le_bytes())
                    .collect();
                for level in Level::ALL {
                    let mut words = vec![0; 4 * len];
                    if run_at(
                        level,
                        Pack {
                            words: &mut words,
                            coeffs: &coeffs,
                        },
                    )
                    .is_none()
                    {
                        continue;
                    }
                    assert_eq!(words, want, "pack at {level:?}, len = {len}");
                    // In range below q; out of range at the largest word.
                    for (bound, ok) in [
                        (q, true),
                        (coeffs.iter().max().copied().unwrap_or(0), false),
                    ] {
                        let mut out = Vec::new();
                        let got = run_at(
                            level,
                            WidenChecked {
                                words: &words,
                                q: bound,
                                out: &mut out,
                            },
                        );
                        assert_eq!(got, Some(ok), "{level:?}, bound {bound}");
                        assert_eq!(out, coeffs, "widen at {level:?}, len = {len}");
                    }
                }
            }
        }
    }

    fn ctx() -> Result<(CkksContext, crate::keys::KeyPair), CkksError> {
        let params = ParamSet::set_a().with_degree(1 << 6).build()?;
        let ctx = CkksContext::with_seed(params, 77)?;
        let kp = ctx.keygen();
        Ok((ctx, kp))
    }

    #[test]
    fn ciphertext_round_trip_preserves_decryption() -> Result<(), CkksError> {
        let (ctx, kp) = ctx()?;
        let vals = vec![1.25, -3.5, 0.0, 42.0];
        let ct = ctx.encrypt_values(&vals, &kp.public)?;
        let bytes = ciphertext_to_bytes(&ct);
        let back = ciphertext_from_bytes(&bytes)?;
        assert_eq!(back, ct);
        let dec = ctx.decrypt_values(&back, &kp.secret)?;
        for (a, b) in vals.iter().zip(&dec) {
            assert!((a - b).abs() < 1e-3);
        }
        Ok(())
    }

    #[test]
    fn wire_size_is_u32_per_coefficient() -> Result<(), CkksError> {
        let (ctx, kp) = ctx()?;
        let ct = ctx.encrypt_values(&[1.0], &kp.public)?;
        let bytes = ciphertext_to_bytes(&ct);
        let limbs = ct.c0.limb_count();
        let n = ct.degree();
        let expect = 4 + 1 + 4 + 8 + 4 + 4 + 2 * limbs * (8 + n * 4);
        assert_eq!(bytes.len(), expect);
        // Half of a 64-bit-word layout, as the 32-bit word size promises.
        assert!(bytes.len() < 2 * limbs * n * 8);
        Ok(())
    }

    #[test]
    fn ciphertext_frames_concatenate_and_round_trip() -> Result<(), CkksError> {
        let (ctx, kp) = ctx()?;
        let a = ctx.encrypt_values(&[1.0, 2.0], &kp.public)?;
        let b = ctx.encrypt_values(&[-0.5], &kp.public)?;
        let mut buf = Vec::new();
        write_ciphertext_frame(&mut buf, &a);
        write_ciphertext_frame(&mut buf, &b);
        let mut pos = 0;
        assert_eq!(read_ciphertext_frame(&buf, &mut pos)?, a);
        assert_eq!(read_ciphertext_frame(&buf, &mut pos)?, b);
        assert_eq!(pos, buf.len(), "frames consume exactly their bytes");
        Ok(())
    }

    #[test]
    fn truncated_frame_errors_without_advancing() -> Result<(), CkksError> {
        let (ctx, kp) = ctx()?;
        let ct = ctx.encrypt_values(&[3.0], &kp.public)?;
        let mut buf = Vec::new();
        write_ciphertext_frame(&mut buf, &ct);
        for cut in [0usize, 3, 10, buf.len() - 1] {
            let mut pos = 0;
            let out = read_ciphertext_frame(&buf[..cut], &mut pos);
            assert!(matches!(out, Err(CkksError::WireDecode(_))), "cut {cut}");
            assert_eq!(pos, 0, "cut {cut}: position must not advance on error");
        }
        Ok(())
    }

    #[test]
    fn ciphertext_frame_survives_truncate_flip_and_extend_at_every_offset() -> Result<(), CkksError>
    {
        let (ctx, kp) = ctx()?;
        let ct = ctx.encrypt_values(&[3.0, -1.0], &kp.public)?;
        let mut good = Vec::new();
        write_ciphertext_frame(&mut good, &ct);
        assert_eq!(good.len(), ciphertext_frame_len(&ct));
        let decode = |buf: &[u8]| {
            let mut pos = 0;
            let out = read_ciphertext_frame(buf, &mut pos);
            assert!(out.is_ok() || pos == 0, "cursor moved on error");
            out
        };
        assert_eq!(decode(&good)?, ct);
        let mut buf = good.clone();
        for at in 0..good.len() {
            // Every truncation is a typed error (never a panic, never an
            // allocation for bytes that are not there).
            assert!(matches!(decode(&good[..at]), Err(CkksError::WireDecode(_))));
            // A flip may land on a coefficient that stays below its
            // modulus and still parse; anything else is a typed error.
            for bit in [0u8, 7] {
                buf[at] ^= 1 << bit;
                match decode(&buf) {
                    Ok(_) | Err(CkksError::WireDecode(_)) => {}
                    Err(e) => panic!("flip {at}.{bit}: untyped error {e:?}"),
                }
                buf[at] ^= 1 << bit;
            }
        }
        // The frame is length-prefixed: bytes after it are not its problem,
        // but a prefix that claims them is.
        let mut long = good.clone();
        long.extend_from_slice(&[0xA5; 9]);
        assert_eq!(decode(&long)?, ct);
        let claimed = (good.len() - 4 + 9) as u32;
        long[..4].copy_from_slice(&claimed.to_le_bytes());
        assert!(matches!(decode(&long), Err(CkksError::WireDecode(_))));
        // A header that declares more than the bytes present is refused
        // before anything is reserved for it.
        let mut huge = good.clone();
        huge[4 + 4 + 1 + 4 + 8..][..4].copy_from_slice(&u32::MAX.to_le_bytes()); // limbs
        assert!(matches!(decode(&huge), Err(CkksError::WireDecode(_))));
        let mut huge = good;
        huge[4 + 4 + 1 + 4 + 8 + 4..][..4].copy_from_slice(&(1u32 << 31).to_le_bytes()); // degree
        assert!(matches!(decode(&huge), Err(CkksError::WireDecode(_))));
        Ok(())
    }

    #[test]
    fn every_out_of_range_coefficient_is_rejected_by_name() -> Result<(), CkksError> {
        let (ctx, kp) = ctx()?;
        let ct = ctx.encrypt_values(&[1.0], &kp.public)?;
        let good = ciphertext_to_bytes(&ct);
        let n = ct.degree();
        let q0 = ct.c0.limb(0).modulus().value();
        // First, a middle and the last coefficient of limb 0: the one-pass
        // check must not lose any position.
        for j in [0, n / 2 + 1, n - 1] {
            let mut bad = good.clone();
            let at = HEADER_BYTES + 8 + 4 * j;
            bad[at..at + 4].copy_from_slice(&(q0 as u32).to_le_bytes());
            match ciphertext_from_bytes(&bad) {
                Err(CkksError::WireDecode(msg)) => assert_eq!(
                    msg,
                    format!("wire coefficient {q0} out of range for modulus {q0}")
                ),
                other => panic!("coefficient {j}: {other:?}"),
            }
        }
        Ok(())
    }

    #[test]
    fn rejects_corruption() -> Result<(), CkksError> {
        let (ctx, kp) = ctx()?;
        let ct = ctx.encrypt_values(&[1.0], &kp.public)?;
        let good = ciphertext_to_bytes(&ct);

        // Truncated.
        assert!(ciphertext_from_bytes(&good[..good.len() - 1]).is_err());
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(ciphertext_from_bytes(&bad).is_err());
        // Wrong kind.
        let mut kind = good.clone();
        kind[4] = KIND_CIPHERTEXT + 1;
        assert!(ciphertext_from_bytes(&kind).is_err());
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(ciphertext_from_bytes(&long).is_err());
        // Out-of-range coefficient: set a coefficient to u32::MAX (all our
        // moduli are < 2^31, so this must be rejected).
        let mut oob = good;
        let coeff_off = 4 + 1 + 4 + 8 + 4 + 4 + 8; // first coefficient of limb 0
        oob[coeff_off..coeff_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ciphertext_from_bytes(&oob).is_err());
        Ok(())
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// One valid ciphertext's bytes, built once: the corpus the
        /// mutation strategies start from.
        fn sample_bytes() -> &'static Vec<u8> {
            static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
            BYTES.get_or_init(|| {
                // invariant: corpus construction from fixed, known-good
                // parameters inside a OnceLock initializer — no Result
                // plumbing possible, and a failure here is a test bug.
                let build = || -> Result<Vec<u8>, CkksError> {
                    let (ctx, kp) = ctx()?;
                    let ct = ctx.encrypt_values(&[1.0, -2.0, 3.0], &kp.public)?;
                    Ok(ciphertext_to_bytes(&ct))
                };
                match build() {
                    Ok(bytes) => bytes,
                    Err(e) => panic!("corpus construction failed: {e}"),
                }
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_mutated_ciphertext_bytes_never_panic(
                idx in 0usize..1 << 20,
                xor in 1u8..=255,
                cut in 0usize..1 << 20,
            ) {
                let ct_bytes = sample_bytes();
                let mut buf = ct_bytes.clone();
                let i = idx % buf.len();
                buf[i] ^= xor;
                // A flipped byte may still parse (e.g. a coefficient that
                // stays below its modulus) — the contract is "Ok or Err,
                // never a panic, never out-of-bounds".
                let _ = ciphertext_from_bytes(&buf);
                // Truncations are always invalid.
                let cut = cut % ct_bytes.len();
                prop_assert!(ciphertext_from_bytes(&ct_bytes[..cut]).is_err());
            }

            #[test]
            fn prop_arbitrary_bytes_never_panic(
                data in proptest::collection::vec(any::<u8>(), 0..256),
            ) {
                // The decoder may not panic on arbitrary input, and
                // anything without the magic prefix must be rejected.
                prop_assert!(data.starts_with(MAGIC) || ciphertext_from_bytes(&data).is_err());
            }
        }
    }

    #[test]
    fn computation_on_deserialized_ciphertexts() -> Result<(), CkksError> {
        let (ctx, kp) = ctx()?;
        let a = ctx.encrypt_values(&[2.0, 3.0], &kp.public)?;
        let b = ctx.encrypt_values(&[5.0, -1.0], &kp.public)?;
        let a2 = ciphertext_from_bytes(&ciphertext_to_bytes(&a))?;
        let b2 = ciphertext_from_bytes(&ciphertext_to_bytes(&b))?;
        let sum = crate::ops::hadd(&a2, &b2)?;
        let dec = ctx.decrypt_values(&sum, &kp.secret)?;
        assert!((dec[0] - 7.0).abs() < 1e-2 && (dec[1] - 2.0).abs() < 1e-2);
        Ok(())
    }

    #[test]
    fn label_frames_round_trip_and_reject_abuse() -> Result<(), CkksError> {
        for label in ["", "alice", "tenant-0_9", "ünïcode"] {
            let mut buf = vec![0xAA]; // a leading byte the cursor must skip
            write_label_frame(&mut buf, label)?;
            buf.push(0xBB); // and a trailing byte it must not consume
            let mut pos = 1;
            assert_eq!(read_label_frame(&buf, &mut pos)?, label);
            assert_eq!(pos, buf.len() - 1, "cursor stops at the frame end");
        }
        // Over-cap labels are refused on both sides.
        let long = "x".repeat(MAX_LABEL_BYTES + 1);
        assert!(matches!(
            write_label_frame(&mut Vec::new(), &long),
            Err(CkksError::WireDecode(_))
        ));
        let mut bad = vec![(MAX_LABEL_BYTES + 1) as u8];
        bad.extend_from_slice(long.as_bytes());
        let mut pos = 0;
        assert!(read_label_frame(&bad, &mut pos).is_err());
        assert_eq!(pos, 0, "cursor untouched on error");
        // Truncation and non-UTF-8 are typed errors.
        let mut pos = 0;
        assert!(read_label_frame(&[5, b'a'], &mut pos).is_err());
        let mut pos = 0;
        assert!(read_label_frame(&[2, 0xFF, 0xFE], &mut pos).is_err());
        Ok(())
    }
}
