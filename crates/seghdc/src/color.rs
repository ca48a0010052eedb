use crate::keys::vector_ids;
use crate::{ColorEncoding, Result, SegHdcError};
use hdc::{BinaryHypervector, HdcRng, ItemMemory, LevelMemory};

/// Encodes 8-bit colour values into hypervectors (§III-2 of the paper,
/// Fig. 4).
///
/// For an image with `channels` colour channels the hypervector of dimension
/// `d` is split into `channels` contiguous chunks of `⌊d / channels⌋` bits
/// (the final chunk absorbs the remainder). Each chunk holds a *level
/// codebook* of 256 hypervectors built by progressive flipping with unit
/// `uc = ⌊chunk / 256⌋ · γ`, so that the Hamming distance between the codes
/// of two intensities `a` and `b` is `|a - b| · uc` — the Manhattan distance
/// of the colour values. The per-channel codes are concatenated to form the
/// colour hypervector of a pixel.
///
/// The [`ColorEncoding::Random`] variant replaces the level codebooks with
/// independent random codebooks (the **RColor** ablation of Table I).
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), seghdc::SegHdcError> {
/// use hdc::HdcRng;
/// use seghdc::{ColorEncoder, ColorEncoding};
///
/// let mut rng = HdcRng::seed_from(3);
/// let encoder = ColorEncoder::new(ColorEncoding::Manhattan, 3072, 1, 1, &mut rng)?;
/// let dark = encoder.encode(&[10])?;
/// let mid = encoder.encode(&[100])?;
/// let bright = encoder.encode(&[240])?;
/// assert!(dark.hamming(&mid)? < dark.hamming(&bright)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ColorEncoder {
    dimension: usize,
    channels: usize,
    encoding: ColorEncoding,
    flip_unit: usize,
    /// One codebook (256 hypervectors of chunk length) per channel.
    channel_codes: Vec<Vec<BinaryHypervector>>,
    /// The same codebooks expanded to full-dimension vectors with each
    /// chunk shifted to its channel's bit offset, so a pixel's colour
    /// hypervector is the XOR of one placed code per channel. XOR of
    /// disjoint-support vectors equals concatenation, and keeping the codes
    /// pre-placed lets the batch encoder bind them into an
    /// [`hdc::HvMatrix`] row with zero per-pixel allocation.
    placed_codes: Vec<Vec<BinaryHypervector>>,
    /// Per channel and value, an id two values share exactly when their
    /// codes are bit-identical (see [`crate::keys`]); at most 256 codes,
    /// so the ids fit a byte.
    code_ids: Vec<[u8; 256]>,
}

impl ColorEncoder {
    /// Builds the per-channel colour codebooks.
    ///
    /// `gamma` is the colour-weighting factor of §III-3: each flip is
    /// widened to `γ · uc` bits, increasing the weight of colour differences
    /// relative to position differences in the final pixel hypervector. If
    /// the widened flips exceed the chunk (`255 · uc · γ > chunk`), the
    /// distance between far-apart intensities saturates at the chunk length
    /// while nearby intensities keep the widened, `γ`-scaled distance.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if `channels` is not 1 or 3,
    /// `gamma` is zero, or the dimension is too small to give every channel
    /// a non-empty chunk.
    pub fn new(
        encoding: ColorEncoding,
        dimension: usize,
        channels: usize,
        gamma: usize,
        rng: &mut HdcRng,
    ) -> Result<Self> {
        if channels != 1 && channels != 3 {
            return Err(SegHdcError::InvalidConfig {
                message: format!("colour encoder supports 1 or 3 channels, got {channels}"),
            });
        }
        if gamma == 0 {
            return Err(SegHdcError::InvalidConfig {
                message: "gamma must be at least 1".to_string(),
            });
        }
        if dimension / channels == 0 {
            return Err(SegHdcError::InvalidConfig {
                message: format!(
                    "dimension {dimension} is too small for {channels} colour channels"
                ),
            });
        }

        let base_chunk = dimension / channels;
        let mut channel_codes = Vec::with_capacity(channels);
        let mut flip_unit = 0;
        for channel in 0..channels {
            // The last chunk absorbs the division remainder so the chunks
            // concatenate to exactly `dimension` bits.
            let chunk = if channel + 1 == channels {
                dimension - base_chunk * (channels - 1)
            } else {
                base_chunk
            };
            let codes = match encoding {
                ColorEncoding::Random => {
                    let memory = ItemMemory::new(256, chunk, rng)?;
                    memory.items().to_vec()
                }
                ColorEncoding::Manhattan => {
                    let unit = (chunk / 256).saturating_mul(gamma);
                    flip_unit = unit;
                    if unit == 0 {
                        // The chunk is smaller than 256 bits, so whole-bit
                        // flips per level are impossible. Fall back to a
                        // proportional prefix: the code of value `v` flips the
                        // first `⌊v · chunk · γ / 256⌋` bits of the base
                        // vector, which keeps distances proportional to the
                        // intensity gap (quantised to single bits).
                        let scale = chunk as f64 * gamma as f64 / 256.0;
                        let base = hdc::BinaryHypervector::random(chunk, rng);
                        let mut codes = Vec::with_capacity(256);
                        for value in 0..256usize {
                            let prefix = ((value as f64 * scale) as usize).min(chunk);
                            let mut code = base.clone();
                            code.flip_range(0, prefix)?;
                            codes.push(code);
                        }
                        codes
                    } else if 255 * unit <= chunk {
                        // The whole 0-255 range fits: use a plain level memory.
                        let levels = LevelMemory::new(256, chunk, unit, rng)?;
                        levels.levels().to_vec()
                    } else {
                        // γ widened the flips beyond the chunk; distances for
                        // small intensity gaps grow by γ and saturate once the
                        // flipped prefix reaches the end of the chunk.
                        let mut codes = Vec::with_capacity(256);
                        let mut current = hdc::BinaryHypervector::random(chunk, rng);
                        codes.push(current.clone());
                        for value in 1..256usize {
                            let start = ((value - 1) * unit).min(chunk);
                            let end = (value * unit).min(chunk);
                            if end > start {
                                current.flip_range(start, end - start)?;
                            }
                            codes.push(current.clone());
                        }
                        codes
                    }
                }
            };
            channel_codes.push(codes);
        }

        Self::assemble(encoding, dimension, flip_unit, channel_codes)
    }

    /// Reassembles an encoder from previously built per-channel codebooks —
    /// the snapshot-restore path. The full-dimension placed codes are
    /// rebuilt from the chunk codes (a deterministic bit-shift, no RNG), so
    /// a snapshot only has to carry the chunk codebooks.
    pub(crate) fn from_parts(
        encoding: ColorEncoding,
        dimension: usize,
        flip_unit: usize,
        channel_codes: Vec<Vec<BinaryHypervector>>,
    ) -> Result<Self> {
        let channels = channel_codes.len();
        if channels != 1 && channels != 3 {
            return Err(SegHdcError::InvalidConfig {
                message: format!("colour encoder supports 1 or 3 channels, got {channels}"),
            });
        }
        if channel_codes.iter().any(|codes| codes.len() != 256) {
            return Err(SegHdcError::InvalidConfig {
                message: "each colour channel codebook must hold 256 codes".to_string(),
            });
        }
        let chunk_sum: usize = channel_codes.iter().map(|codes| codes[0].dim()).sum();
        if chunk_sum != dimension {
            return Err(SegHdcError::InvalidConfig {
                message: format!(
                    "colour chunk dimensions sum to {chunk_sum}, expected {dimension}"
                ),
            });
        }
        if channel_codes
            .iter()
            .any(|codes| codes.iter().any(|code| code.dim() != codes[0].dim()))
        {
            return Err(SegHdcError::InvalidConfig {
                message: "colour codes within a channel must share one chunk dimension".to_string(),
            });
        }
        Self::assemble(encoding, dimension, flip_unit, channel_codes)
    }

    /// The encoder over checked chunk codebooks (256 codes per channel,
    /// chunks summing to `dimension`): places each chunk at its channel's
    /// bit offset and numbers the codes.
    fn assemble(
        encoding: ColorEncoding,
        dimension: usize,
        flip_unit: usize,
        channel_codes: Vec<Vec<BinaryHypervector>>,
    ) -> Result<Self> {
        let mut placed_codes = Vec::with_capacity(channel_codes.len());
        let mut offset = 0;
        for codes in &channel_codes {
            let placed = codes
                .iter()
                .map(|code| place_chunk(code, offset, dimension))
                .collect::<Result<Vec<_>>>()?;
            offset += codes[0].dim();
            placed_codes.push(placed);
        }
        let code_ids = channel_codes
            .iter()
            .map(|codes| {
                let mut ids = [0u8; 256];
                for (id, code_id) in ids.iter_mut().zip(vector_ids(codes)) {
                    *id = u8::try_from(code_id).expect("a channel holds 256 codes");
                }
                ids
            })
            .collect();
        Ok(Self {
            dimension,
            channels: channel_codes.len(),
            encoding,
            flip_unit,
            channel_codes,
            placed_codes,
            code_ids,
        })
    }

    /// The per-channel chunk codebooks (256 codes each), for persistence.
    pub(crate) fn channel_codes(&self) -> &[Vec<BinaryHypervector>] {
        &self.channel_codes
    }

    /// The total hypervector dimensionality (sum of the channel chunks).
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// Number of colour channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The encoding variant.
    pub fn encoding(&self) -> ColorEncoding {
        self.encoding
    }

    /// Heap bytes held by the per-channel and pre-placed codebooks and
    /// the code ids — the cost of keeping this encoder resident in the
    /// engine's codebook cache.
    pub fn codebook_bytes(&self) -> usize {
        self.channel_codes
            .iter()
            .chain(self.placed_codes.iter())
            .flatten()
            .map(hdc::BinaryHypervector::heap_bytes)
            .sum::<usize>()
            + self.code_ids.capacity() * 256
    }

    /// Bits flipped per intensity step (0 for the `Random` variant or when
    /// the chunk is smaller than 256 bits).
    pub fn flip_unit(&self) -> usize {
        self.flip_unit
    }

    /// Encodes one pixel's channel values (`values.len()` must equal
    /// [`channels`](Self::channels)) into a hypervector of
    /// [`dimension`](Self::dimension) bits.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if the number of values does
    /// not match the channel count.
    pub fn encode(&self, values: &[u8]) -> Result<BinaryHypervector> {
        if values.len() != self.channels {
            return Err(SegHdcError::InvalidConfig {
                message: format!(
                    "expected {} channel values, got {}",
                    self.channels,
                    values.len()
                ),
            });
        }
        let mut result = self.placed_codes[0][usize::from(values[0])].clone();
        for (channel, &value) in values.iter().enumerate().skip(1) {
            result.xor_assign(self.placed_code(channel, value))?;
        }
        Ok(result)
    }

    /// The full-dimension code of `value` on `channel`, with the channel's
    /// chunk already shifted to its bit offset.
    ///
    /// XOR-ing one placed code per channel into a zeroed row reproduces
    /// [`encode`](Self::encode) bit-for-bit; this is the accessor the batch
    /// pixel encoder binds from.
    ///
    /// # Panics
    ///
    /// Panics if `channel >= channels()`.
    pub fn placed_code(&self, channel: usize, value: u8) -> &BinaryHypervector {
        &self.placed_codes[channel][usize::from(value)]
    }

    /// The id of each value's code on `channel`, indexed by value: two
    /// values share an id exactly when their codes are bit-identical.
    pub(crate) fn code_ids(&self, channel: usize) -> &[u8; 256] {
        &self.code_ids[channel]
    }

    /// How many distinct codes `channel` has (its largest id plus one).
    pub(crate) fn code_levels(&self, channel: usize) -> usize {
        self.code_ids[channel]
            .iter()
            .max()
            .map_or(0, |&id| usize::from(id) + 1)
    }

    /// Hamming distance between the codes of two single-channel intensities;
    /// exposed for the encoding ablation benchmarks.
    ///
    /// # Errors
    ///
    /// Propagates hypervector dimension errors (which cannot occur for codes
    /// from the same encoder).
    pub fn intensity_distance(&self, a: u8, b: u8) -> Result<usize> {
        let code_a = &self.channel_codes[0][usize::from(a)];
        let code_b = &self.channel_codes[0][usize::from(b)];
        Ok(code_a.hamming(code_b)?)
    }
}

/// Expands a chunk-dimension code into a `dim`-bit vector with the chunk's
/// bits starting at `offset` (everything else zero).
fn place_chunk(code: &BinaryHypervector, offset: usize, dim: usize) -> Result<BinaryHypervector> {
    let mut placed = BinaryHypervector::zeros(dim)?;
    for bit in code.iter_ones() {
        placed.set_bit(offset + bit, true)?;
    }
    Ok(placed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> HdcRng {
        HdcRng::seed_from(5)
    }

    #[test]
    fn placed_codes_xor_to_the_concatenated_encoding() {
        let enc = ColorEncoder::new(ColorEncoding::Manhattan, 3001, 3, 1, &mut rng()).unwrap();
        let values = [17u8, 203, 90];
        // Reference: concatenate the chunk codes, as the paper describes.
        let concatenated = enc.channel_codes[0][usize::from(values[0])]
            .concat(&enc.channel_codes[1][usize::from(values[1])])
            .concat(&enc.channel_codes[2][usize::from(values[2])]);
        assert_eq!(enc.encode(&values).unwrap(), concatenated);
        // And the placed codes have disjoint support, so XOR == concat.
        let mut xored = BinaryHypervector::zeros(3001).unwrap();
        for (channel, &value) in values.iter().enumerate() {
            xored.xor_assign(enc.placed_code(channel, value)).unwrap();
        }
        assert_eq!(xored, concatenated);
    }

    #[test]
    fn construction_validates_parameters() {
        assert!(ColorEncoder::new(ColorEncoding::Manhattan, 3000, 2, 1, &mut rng()).is_err());
        assert!(ColorEncoder::new(ColorEncoding::Manhattan, 3000, 3, 0, &mut rng()).is_err());
        assert!(ColorEncoder::new(ColorEncoding::Manhattan, 2, 3, 1, &mut rng()).is_err());
        assert!(ColorEncoder::new(ColorEncoding::Manhattan, 3000, 1, 1, &mut rng()).is_ok());
    }

    #[test]
    fn single_channel_distances_follow_manhattan_distance() {
        let enc = ColorEncoder::new(ColorEncoding::Manhattan, 5120, 1, 1, &mut rng()).unwrap();
        let uc = enc.flip_unit();
        assert_eq!(uc, 5120 / 256);
        for (a, b) in [(0u8, 255u8), (10, 20), (100, 101), (42, 42)] {
            let d = enc.intensity_distance(a, b).unwrap();
            assert_eq!(d, usize::from(a.abs_diff(b)) * uc, "values {a},{b}");
        }
    }

    #[test]
    fn three_channel_encoding_concatenates_chunks() {
        let enc = ColorEncoder::new(ColorEncoding::Manhattan, 3001, 3, 1, &mut rng()).unwrap();
        let hv = enc.encode(&[255, 128, 0]).unwrap();
        assert_eq!(hv.dim(), 3001);
        // Changing only one channel changes only that chunk's bits.
        let other = enc.encode(&[255, 129, 0]).unwrap();
        let d = hv.hamming(&other).unwrap();
        assert_eq!(d, enc.flip_unit());
    }

    #[test]
    fn per_channel_distances_add_up() {
        let enc = ColorEncoder::new(ColorEncoding::Manhattan, 3 * 2560, 3, 1, &mut rng()).unwrap();
        let uc = enc.flip_unit();
        let a = enc.encode(&[10, 200, 50]).unwrap();
        let b = enc.encode(&[12, 190, 50]).unwrap();
        assert_eq!(a.hamming(&b).unwrap(), (2 + 10) * uc);
    }

    #[test]
    fn gamma_widens_colour_distances_when_the_chunk_has_room() {
        // Use a dimension with plenty of slack so gamma = 2 actually fits.
        let narrow =
            ColorEncoder::new(ColorEncoding::Manhattan, 131_072, 1, 1, &mut rng()).unwrap();
        let wide = ColorEncoder::new(ColorEncoding::Manhattan, 131_072, 1, 2, &mut rng()).unwrap();
        assert_eq!(wide.flip_unit(), 2 * narrow.flip_unit());
        let d_narrow = narrow.intensity_distance(0, 100).unwrap();
        let d_wide = wide.intensity_distance(0, 100).unwrap();
        assert_eq!(d_wide, 2 * d_narrow);
    }

    #[test]
    fn gamma_saturates_when_the_chunk_is_full() {
        let enc = ColorEncoder::new(ColorEncoding::Manhattan, 2560, 1, 100, &mut rng()).unwrap();
        // Nearby intensities keep the widened distance...
        assert_eq!(enc.intensity_distance(0, 1).unwrap(), 100 * (2560 / 256));
        // ...while far-apart intensities saturate at the chunk length.
        assert_eq!(enc.intensity_distance(0, 255).unwrap(), 2560);
        // Distances stay monotone in the intensity gap.
        assert!(enc.intensity_distance(0, 2).unwrap() >= enc.intensity_distance(0, 1).unwrap());
    }

    #[test]
    fn random_encoding_destroys_the_metric_structure() {
        let enc = ColorEncoder::new(ColorEncoding::Random, 4096, 1, 1, &mut rng()).unwrap();
        // Neighbouring intensities are as far apart as distant ones.
        let near = enc.intensity_distance(100, 101).unwrap() as f64 / 4096.0;
        let far = enc.intensity_distance(0, 255).unwrap() as f64 / 4096.0;
        assert!((near - 0.5).abs() < 0.05);
        assert!((far - 0.5).abs() < 0.05);
    }

    #[test]
    fn encode_validates_the_value_count() {
        let enc = ColorEncoder::new(ColorEncoding::Manhattan, 3000, 3, 1, &mut rng()).unwrap();
        assert!(enc.encode(&[1, 2]).is_err());
        assert!(enc.encode(&[1, 2, 3, 4]).is_err());
        assert!(enc.encode(&[1, 2, 3]).is_ok());
    }

    #[test]
    fn identical_values_encode_identically() {
        let enc = ColorEncoder::new(ColorEncoding::Manhattan, 3000, 3, 1, &mut rng()).unwrap();
        assert_eq!(
            enc.encode(&[7, 8, 9]).unwrap(),
            enc.encode(&[7, 8, 9]).unwrap()
        );
    }

    #[test]
    fn small_dimension_still_produces_full_length_vectors() {
        // chunk < 256 bits: the flip unit degrades to zero but encoding must
        // still produce vectors of the configured dimension.
        let enc = ColorEncoder::new(ColorEncoding::Manhattan, 192, 3, 1, &mut rng()).unwrap();
        assert_eq!(enc.flip_unit(), 0);
        assert_eq!(enc.encode(&[0, 128, 255]).unwrap().dim(), 192);
    }
}
