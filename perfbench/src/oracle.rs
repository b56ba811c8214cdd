//! Correctness oracle: every served path must equal the tape
//! reference (`EndToEnd::predict`) bit for bit and satisfy the paper's
//! invariants.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rntrajrec::model::EndToEnd;
use rntrajrec_models::SampleInput;
use rntrajrec_nn::Tape;

pub type Path = Vec<(usize, f32)>;

/// One distinct input with its tape reference.
pub struct Expected {
    pub path: Path,
    /// Allowed segments at each observed step (Eq. 16 mask entry);
    /// `None` where the mask is all-ones.
    obs_allowed: Vec<(usize, Option<Vec<usize>>)>,
    num_segments: usize,
}

impl Expected {
    /// The oracle for `input` whose tape reference is `path`.
    pub fn new(path: Path, input: &SampleInput, num_segments: usize) -> Self {
        let obs_allowed = input
            .obs_step
            .iter()
            .map(|&step| {
                let allowed = input
                    .masks
                    .get(step)
                    .and_then(|m| m.as_ref())
                    .map(|m| m.iter().map(|&(s, _)| s).collect());
                (step, allowed)
            })
            .collect();
        Self {
            path,
            obs_allowed,
            num_segments,
        }
    }

    /// `Ok` when `got` is bit-identical to the reference and satisfies
    /// the invariants; otherwise the first violation found.
    pub fn check(&self, got: &[(usize, f32)]) -> Result<(), String> {
        self.invariants(got)?;
        if got.len() != self.path.len() {
            return Err(format!(
                "path has {} steps, reference {}",
                got.len(),
                self.path.len()
            ));
        }
        for (j, (g, w)) in got.iter().zip(&self.path).enumerate() {
            if g.0 != w.0 || g.1.to_bits() != w.1.to_bits() {
                return Err(format!("step {j}: served {g:?}, tape reference {w:?}"));
            }
        }
        Ok(())
    }

    /// Segment ids in range, rates in [0, 1], and each observed step's
    /// segment inside its constraint mask.
    pub fn invariants(&self, got: &[(usize, f32)]) -> Result<(), String> {
        for (j, &(seg, rate)) in got.iter().enumerate() {
            if seg >= self.num_segments {
                return Err(format!(
                    "step {j}: segment {seg} >= {} segments",
                    self.num_segments
                ));
            }
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("step {j}: rate {rate} outside [0, 1]"));
            }
        }
        for (step, allowed) in &self.obs_allowed {
            if let (Some(allowed), Some(&(seg, _))) = (allowed, got.get(*step)) {
                if !allowed.contains(&seg) {
                    return Err(format!(
                        "observed step {step}: segment {seg} outside its constraint mask"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The tape reference for `input`; not timed by any workload.
pub fn tape_reference(model: &EndToEnd, input: &SampleInput) -> Path {
    // Greedy inference draws nothing from the rng; any seed works.
    model.predict(input, &mut StdRng::seed_from_u64(0))
}

/// Write reference paths and a loss as text, bit-exact: one line for the
/// loss, then one line of `segment:rate_bits` pairs per path.
pub fn write_references(file: &std::path::Path, loss: f64, paths: &[Path]) -> Result<(), String> {
    let mut text = format!("{:x}\n", loss.to_bits());
    for path in paths {
        let pairs: Vec<String> = path
            .iter()
            .map(|(s, r)| format!("{s}:{:x}", r.to_bits()))
            .collect();
        text.push_str(&pairs.join(" "));
        text.push('\n');
    }
    std::fs::write(file, text).map_err(|e| format!("{}: {e}", file.display()))
}

/// Read what [`write_references`] wrote.
pub fn read_references(file: &std::path::Path) -> Result<(f64, Vec<Path>), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let bad = || format!("{}: malformed reference file", file.display());
    let mut lines = text.lines();
    let loss =
        f64::from_bits(u64::from_str_radix(lines.next().ok_or_else(bad)?, 16).map_err(|_| bad())?);
    let paths = lines
        .map(|line| {
            line.split_whitespace()
                .map(|pair| {
                    let (s, r) = pair.split_once(':').ok_or_else(bad)?;
                    let seg = s.parse().map_err(|_| bad())?;
                    let rate = f32::from_bits(u32::from_str_radix(r, 16).map_err(|_| bad())?);
                    Ok((seg, rate))
                })
                .collect::<Result<Path, String>>()
        })
        .collect::<Result<Vec<Path>, String>>()?;
    Ok((loss, paths))
}

/// Teacher-forced training loss of `model` on `inputs` (one batch).
pub fn teacher_forced_loss(model: &EndToEnd, inputs: &[SampleInput]) -> f64 {
    let batch: Vec<&SampleInput> = inputs.iter().collect();
    let mut tape = Tape::new();
    let loss = model.batch_loss(&mut tape, &batch, &mut StdRng::seed_from_u64(0));
    f64::from(tape.value(loss).item())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected() -> Expected {
        Expected {
            path: vec![(1, 0.5), (2, 0.25)],
            obs_allowed: vec![(0, Some(vec![1, 3])), (1, None)],
            num_segments: 4,
        }
    }

    #[test]
    fn references_round_trip_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("perfbench-oracle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("refs.txt");
        let paths = vec![vec![(3, 0.1f32), (7, f32::from_bits(1))], vec![]];
        write_references(&file, 4.25, &paths).unwrap();
        let (loss, got) = read_references(&file).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(loss, 4.25);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0][1].1.to_bits(), 1);
        assert_eq!(got, paths);
    }

    #[test]
    fn accepts_the_reference_and_rejects_every_kind_of_violation() {
        let e = expected();
        assert!(e.check(&[(1, 0.5), (2, 0.25)]).is_ok());
        // A rate off by one ulp is a mismatch.
        let ulp = f32::from_bits(0.25f32.to_bits() + 1);
        assert!(e.check(&[(1, 0.5), (2, ulp)]).is_err());
        assert!(e.check(&[(1, 0.5)]).is_err());
        assert!(e.invariants(&[(4, 0.5)]).is_err());
        assert!(e.invariants(&[(1, 1.5)]).is_err());
        assert!(e.invariants(&[(1, f32::NAN)]).is_err());
        // Segment 2 at observed step 0 is outside the mask {1, 3}.
        assert!(e.invariants(&[(2, 0.5)]).is_err());
        assert!(e.invariants(&[(3, 0.5), (0, 0.0)]).is_ok());
    }
}
