//! The columnar binary shard format.
//!
//! A shard is a self-describing single file:
//!
//! ```text
//! magic            8 bytes   b"PLTDSET1"
//! header_len       u32 LE
//! header           canonical compact JSON: format tag, feature names,
//!                  total row count, per-cell provenance
//!                  (label, seed, rows, positives)
//! feature columns  NUM_FEATURES columns × rows × f32 LE, column-major
//! cell column      rows × u32 LE (index into the header's cell list)
//! label column     rows × u8 (0 benign, 1 malicious)
//! digest           u64 LE — FNV-1a over every preceding byte
//! ```
//!
//! Column-major `f32` keeps corridor-scale exports compact (one byte per
//! label, four per feature) and streaming-friendly; the canonical header
//! plus trailing digest make byte-identity across worker counts checkable
//! with a plain `cmp`.

use platoon_detect::features::{FEATURE_NAMES, NUM_FEATURES};
use platoon_sim::fnv1a;
use platoon_sim::harness::json;

/// Leading magic bytes of every shard.
pub const MAGIC: &[u8; 8] = b"PLTDSET1";

/// Body bytes per row: the f32 features, the u32 cell index, the label.
const ROW_BYTES: usize = 4 * NUM_FEATURES + 4 + 1;

/// A header row count: a finite, non-negative integer that fits `usize`.
fn row_count(value: Option<&json::Value>) -> Option<usize> {
    let n = value?.as_f64()?;
    // 2^64 is the first float past `usize::MAX` on 64-bit targets.
    let fits = n >= 0.0 && n.fract() == 0.0 && n < usize::MAX as f64;
    fits.then_some(n as usize)
}

/// One export cell's rows: a single (attack arm, seed) run.
#[derive(Clone, Debug, PartialEq)]
pub struct CellBlock {
    /// Cell label (`attack/s<idx>`), unique within a shard.
    pub label: String,
    /// The engine seed the cell ran under.
    pub seed: u64,
    /// Per-beacon feature rows, arrival order, `f32`-rounded exactly as
    /// they are stored on disk.
    pub features: Vec<[f32; NUM_FEATURES]>,
    /// Per-row truth labels (0 benign, 1 malicious), row-aligned.
    pub labels: Vec<u8>,
}

impl CellBlock {
    /// Malicious rows in this cell.
    pub fn positives(&self) -> u64 {
        self.labels.iter().filter(|&&l| l == 1).count() as u64
    }
}

/// An ordered collection of cells — one train or test split.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Shard {
    /// Cells in grid submission order.
    pub cells: Vec<CellBlock>,
}

impl Shard {
    /// Total rows across cells.
    pub fn rows(&self) -> usize {
        self.cells.iter().map(|c| c.features.len()).sum()
    }

    /// Total malicious rows across cells.
    pub fn positives(&self) -> u64 {
        self.cells.iter().map(|c| c.positives()).sum()
    }

    /// Encodes the shard into its canonical byte representation,
    /// including the trailing digest.
    pub fn encode(&self) -> Vec<u8> {
        let rows = self.rows();
        let mut w = json::Writer::compact();
        w.obj(|w| {
            w.field_str("format", "platoon-dataset-v1");
            w.field_arr("features", |w| {
                for name in FEATURE_NAMES {
                    w.elem(|w| w.push_str(name));
                }
            });
            w.field_u64("rows", rows as u64);
            w.field_arr("cells", |w| {
                for cell in &self.cells {
                    w.elem(|w| {
                        w.obj(|w| {
                            w.field_str("label", &cell.label);
                            w.field_u64("seed", cell.seed);
                            w.field_u64("rows", cell.features.len() as u64);
                            w.field_u64("positives", cell.positives());
                        })
                    });
                }
            });
        });
        let header = w.finish();
        let mut out = Vec::with_capacity(MAGIC.len() + 4 + header.len() + rows * ROW_BYTES + 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(header.len() as u32).to_le_bytes());
        out.extend_from_slice(header.as_bytes());
        for col in 0..NUM_FEATURES {
            for cell in &self.cells {
                for row in &cell.features {
                    out.extend_from_slice(&row[col].to_le_bytes());
                }
            }
        }
        for (ci, cell) in self.cells.iter().enumerate() {
            for _ in 0..cell.features.len() {
                out.extend_from_slice(&(ci as u32).to_le_bytes());
            }
        }
        for cell in &self.cells {
            out.extend_from_slice(&cell.labels);
        }
        let digest = fnv1a(&out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    /// The digest an encode of this shard carries (recomputed).
    pub fn digest(&self) -> u64 {
        let encoded = self.encode();
        u64::from_le_bytes(encoded[encoded.len() - 8..].try_into().unwrap())
    }

    /// Decodes and fully verifies a shard: magic, header, column sizes and
    /// the trailing digest.
    pub fn decode(bytes: &[u8]) -> Result<Shard, String> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err("shard truncated".into());
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err("bad magic".into());
        }
        let (body, digest_bytes) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(digest_bytes.try_into().unwrap());
        let computed = fnv1a(body);
        if stored != computed {
            return Err(format!(
                "digest mismatch: stored {stored:#x}, computed {computed:#x}"
            ));
        }
        let mut pos = MAGIC.len();
        let header_len = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if body.len() < pos + header_len {
            return Err("header truncated".into());
        }
        let header_text = std::str::from_utf8(&body[pos..pos + header_len])
            .map_err(|e| format!("header not UTF-8: {e}"))?;
        pos += header_len;
        let header = json::parse(header_text)?;
        let cells_meta = match header.get("cells") {
            Some(json::Value::Arr(cells)) => cells,
            _ => return Err("header missing cells".into()),
        };
        // The digest is unkeyed, so every count below may be forged: check
        // them all against the body length before allocating any rows.
        let total_rows =
            row_count(header.get("rows")).ok_or("header rows missing or not a row count")?;
        let mut metas = Vec::with_capacity(cells_meta.len());
        let mut cell_rows = 0usize;
        for meta in cells_meta {
            let label = match meta.get("label") {
                Some(json::Value::Str(s)) => s.clone(),
                _ => return Err("cell missing label".into()),
            };
            let seed = meta
                .get("seed")
                .and_then(json::Value::as_safe_u64)
                .ok_or("cell seed missing or not an integer below 2^53")?;
            let rows = row_count(meta.get("rows")).ok_or("cell rows missing or not a row count")?;
            cell_rows = cell_rows
                .checked_add(rows)
                .ok_or("cell row counts overflow")?;
            metas.push((label, seed, rows));
        }
        if cell_rows != total_rows {
            return Err("cell row counts do not sum to the header total".into());
        }
        let payload = total_rows
            .checked_mul(ROW_BYTES)
            .ok_or("row count overflows the payload size")?;
        if body.len() != pos + payload {
            return Err(format!(
                "payload size mismatch: have {}, expected {payload}",
                body.len() - pos
            ));
        }
        let mut cells: Vec<CellBlock> = metas
            .into_iter()
            .map(|(label, seed, rows)| CellBlock {
                label,
                seed,
                features: vec![[0.0; NUM_FEATURES]; rows],
                labels: vec![0; rows],
            })
            .collect();
        for col in 0..NUM_FEATURES {
            for cell in &mut cells {
                for row in &mut cell.features {
                    row[col] = f32::from_le_bytes(body[pos..pos + 4].try_into().unwrap());
                    pos += 4;
                }
            }
        }
        for (ci, cell) in cells.iter().enumerate() {
            for _ in 0..cell.features.len() {
                let stored_ci = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap());
                pos += 4;
                if stored_ci as usize != ci {
                    return Err("cell column does not match header order".into());
                }
            }
        }
        for cell in &mut cells {
            let n = cell.labels.len();
            cell.labels.copy_from_slice(&body[pos..pos + n]);
            pos += n;
        }
        Ok(Shard { cells })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Shard {
        let mut cells = Vec::new();
        for (ci, label) in ["benign/s0", "sybil/s1"].iter().enumerate() {
            let mut features = Vec::new();
            let mut labels = Vec::new();
            for r in 0..17u32 {
                let mut row = [0.0f32; NUM_FEATURES];
                for (fi, f) in row.iter_mut().enumerate() {
                    *f = (ci as f32 + 1.0) * (r as f32 * 0.5 + fi as f32);
                }
                features.push(row);
                labels.push(u8::from(ci == 1 && r % 3 == 0));
            }
            cells.push(CellBlock {
                label: label.to_string(),
                seed: 2021 + ci as u64,
                features,
                labels,
            });
        }
        Shard { cells }
    }

    #[test]
    fn encode_decode_round_trips() {
        let shard = sample();
        let bytes = shard.encode();
        assert_eq!(&bytes[..8], MAGIC);
        let back = Shard::decode(&bytes).expect("decode");
        assert_eq!(back, shard);
        assert_eq!(back.rows(), 34);
        assert_eq!(back.positives(), 6);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
    }

    #[test]
    fn corruption_is_caught_by_the_digest() {
        let mut bytes = sample().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = Shard::decode(&bytes).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    /// Re-seals a (tampered) body with a correct digest, as anyone can:
    /// FNV-1a is unkeyed.
    fn reseal(mut body: Vec<u8>) -> Vec<u8> {
        let digest = fnv1a(&body);
        body.extend_from_slice(&digest.to_le_bytes());
        body
    }

    /// A shard whose header is `header` and whose body holds nothing else.
    fn forged(header: &str) -> Vec<u8> {
        let mut body = MAGIC.to_vec();
        body.extend_from_slice(&(header.len() as u32).to_le_bytes());
        body.extend_from_slice(header.as_bytes());
        reseal(body)
    }

    #[test]
    fn forged_row_counts_are_rejected_before_allocating() {
        let huge = r#"{"cells":[{"label":"x","seed":1,"rows":1e18}],"rows":1e18}"#;
        let err = Shard::decode(&forged(huge)).unwrap_err();
        assert!(err.contains("row count overflows"), "{err}");
        for header in [
            r#"{"cells":[{"label":"x","seed":1,"rows":1e12}],"rows":1e12}"#,
            r#"{"cells":[{"label":"x","seed":1,"rows":1e300}],"rows":1e300}"#,
            r#"{"cells":[{"label":"x","seed":1,"rows":-1}],"rows":-1}"#,
            r#"{"cells":[{"label":"x","seed":1,"rows":0.5}],"rows":0.5}"#,
            r#"{"cells":[{"label":"x","seed":1,"rows":9e18},{"label":"y","seed":2,"rows":9e18}],"rows":0}"#,
            r#"{"cells":[{"label":"x","seed":1,"rows":1}],"rows":1}"#,
            r#"{"cells":[{"label":"x","seed":-1,"rows":0}],"rows":0}"#,
            r#"{"cells":[{"label":"x","seed":0.5,"rows":0}],"rows":0}"#,
            r#"{"cells":[{"label":"x","seed":1e30,"rows":0}],"rows":0}"#,
            r#"{"cells":[{"label":"x","seed":9007199254740992,"rows":0}],"rows":0}"#,
            r#"{"cells":[{"label":"x","seed":9007199254740993,"rows":0}],"rows":0}"#,
            r#"{"cells":[{"label":"x","seed":"1","rows":0}],"rows":0}"#,
        ] {
            assert!(Shard::decode(&forged(header)).is_err(), "{header}");
        }
        let empty = r#"{"cells":[{"label":"x","seed":1,"rows":0}],"rows":0}"#;
        assert_eq!(Shard::decode(&forged(empty)).unwrap().rows(), 0);
        let largest = r#"{"cells":[{"label":"x","seed":9007199254740991,"rows":0}],"rows":0}"#;
        let shard = Shard::decode(&forged(largest)).unwrap();
        assert_eq!(shard.cells[0].seed, (1 << 53) - 1);
    }

    proptest::proptest! {
        /// Truncated or byte-mutated shards whose digest was recomputed to
        /// match decode to `Err` or `Ok`, never a panic.
        #[test]
        fn resealed_mutants_never_panic(
            cut in 0usize..4096,
            edits in proptest::collection::vec((0usize..4096, 1u8..255), 0..4),
        ) {
            let bytes = sample().encode();
            let mut body = bytes[..bytes.len() - 8].to_vec();
            body.truncate(cut.max(MAGIC.len()));
            for &(at, mask) in &edits {
                let i = at % body.len();
                body[i] ^= mask;
            }
            let _ = Shard::decode(&reseal(body));
        }

        /// A header digit replaced by another number: row counts and
        /// seeds that lie about the body, with a matching digest.
        #[test]
        fn resealed_header_numbers_never_panic(
            at in 0usize..4096,
            pick in 0usize..8,
        ) {
            const NUMBERS: [&str; 8] = ["0", "7", "99", "-1", "0.5", "1e12", "1e18", "1e400"];
            let bytes = sample().encode();
            let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
            let header = &bytes[12..12 + header_len];
            let digits: Vec<usize> = (0..header_len).filter(|&k| header[k].is_ascii_digit()).collect();
            let i = digits[at % digits.len()];
            let mut text = header[..i].to_vec();
            text.extend_from_slice(NUMBERS[pick].as_bytes());
            text.extend_from_slice(&header[i + 1..]);
            let mut body = MAGIC.to_vec();
            body.extend_from_slice(&(text.len() as u32).to_le_bytes());
            body.extend_from_slice(&text);
            body.extend_from_slice(&bytes[12 + header_len..bytes.len() - 8]);
            let _ = Shard::decode(&reseal(body));
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample().encode();
        assert!(Shard::decode(&bytes[..bytes.len() - 9]).is_err());
        assert!(Shard::decode(&bytes[..4]).is_err());
    }
}
