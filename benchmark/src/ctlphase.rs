//! The `ctl_rpc` phase: nameserver and Flowserver RPCs over loopback
//! TCP, the paper's control path (one nameserver and one Flowserver
//! round trip per read).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use std::collections::VecDeque;

use crate::adapters::CtlRig;
use crate::ops::{CtlConfig, CtlGen, CtlOp};
use crate::phase::{OpenBatch, PhaseRun, Tally};
use crate::spans::Recorder;

/// Classes of the control-plane phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtlClass {
    /// `nameserver.lookup`.
    Lookup = 0,
    /// `flowserver.select`.
    Select = 1,
    /// `flowserver.completed`, and the create/size/delete of churn.
    Other = 2,
}

/// Both servers, both connections and the harness's record of what
/// the nameserver should answer.
pub struct CtlPhase {
    config: CtlConfig,
    rig: CtlRig,
    rec: Arc<Recorder>,
    gen: CtlGen,
    /// Replicas the nameserver placed for each file at creation.
    placed: Vec<Vec<u32>>,
    /// Cookies of the flows still tracked, oldest first.
    cookies: VecDeque<u64>,
    churned: u64,
}

fn file_name(rank: u32) -> String {
    format!("f/{rank:04}")
}

impl CtlPhase {
    /// Starts the servers under `dir`, connects, and creates the file
    /// population: the `setup_s` share of this phase.
    ///
    /// # Errors
    ///
    /// Describes the first failure.
    pub fn set_up(
        dir: &Path,
        seed: u64,
        config: &CtlConfig,
        rec: &Arc<Recorder>,
    ) -> Result<CtlPhase, String> {
        let rig = CtlRig::start(dir, rec)?;
        let placed = (0..config.files)
            .map(|rank| rig.create(&file_name(rank)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CtlPhase {
            config: config.clone(),
            rig,
            rec: rec.clone(),
            gen: CtlGen::new(seed, config),
            placed,
            cookies: VecDeque::new(),
            churned: 0,
        })
    }

    /// Times one RPC under an op span and records it in `batch`.
    fn rpc<T>(
        &self,
        span: &'static str,
        class: CtlClass,
        batch: &mut OpenBatch<'_, 3>,
        call: impl FnOnce(&CtlRig) -> Result<T, String>,
    ) -> Result<T, String> {
        let open = self.rec.begin_op(span);
        let started = Instant::now();
        let out = call(&self.rig);
        let seconds = started.elapsed().as_secs_f64();
        self.rec.end(open);
        batch.op(class as usize, 0, seconds);
        out
    }

    fn iteration(&mut self, op: CtlOp, batch: &mut OpenBatch<'_, 3>, tally: &mut Tally) {
        let name = file_name(op.file);
        let want = &self.placed[op.file as usize];
        let looked = self
            .rpc("ctl.lookup", CtlClass::Lookup, batch, |r| r.lookup(&name))
            .and_then(|(replicas, _)| {
                if &replicas == want {
                    Ok(replicas)
                } else {
                    Err(format!(
                        "{name}: lookup returned {replicas:?}, created with {want:?}"
                    ))
                }
            });
        let replicas = match looked {
            Ok(replicas) => {
                tally.note(Ok(()));
                replicas
            }
            Err(e) => {
                tally.note(Err(e));
                return;
            }
        };

        let bytes = self.config.read_bytes;
        let selected = self
            .rpc("ctl.select", CtlClass::Select, batch, |r| {
                r.select(op.client, &replicas, bytes)
            })
            .and_then(|assignments| {
                let local = replicas.contains(&op.client);
                let valid = if local {
                    assignments.is_empty()
                } else {
                    assignments.len() == 1 && replicas.contains(&assignments[0].0)
                };
                if valid {
                    Ok(assignments)
                } else {
                    Err(format!(
                        "select for host {} over {replicas:?} returned {assignments:?}",
                        op.client
                    ))
                }
            });
        match selected {
            Ok(assignments) => {
                tally.note(Ok(()));
                self.cookies.extend(assignments.iter().map(|a| a.1));
            }
            Err(e) => tally.note(Err(e)),
        }

        // Retire the oldest flow once more than `tracked` are out, so
        // selection always runs against that many tracked flows.
        if self.cookies.len() > self.config.tracked {
            let cookie = self.cookies.pop_front().expect("non-empty");
            let out = self.rpc("ctl.completed", CtlClass::Other, batch, |r| {
                r.completed(cookie)
            });
            tally.note(out);
        }

        if op.churn {
            self.churned += 1;
            let fresh = format!("tmp/{}", self.churned);
            let size = self.churned;
            let out = self
                .rpc("ctl.create", CtlClass::Other, batch, |r| r.create(&fresh))
                .map(drop);
            tally.note(out);
            let out = self.rpc("ctl.record_size", CtlClass::Other, batch, |r| {
                r.record_size(&fresh, size)
            });
            tally.note(out);
            let out = self.rpc("ctl.delete", CtlClass::Other, batch, |r| r.delete(&fresh));
            tally.note(out);
        }
    }

    /// Runs one batch into `run`, recording spans if `traced`.
    pub fn batch(&mut self, traced: bool, run: &mut PhaseRun<3>, tally: &mut Tally) {
        let ops = self.gen.next_batch();
        self.rec.set_enabled(traced);
        run.batch(traced, |batch| {
            for op in ops {
                self.iteration(op, batch, tally);
            }
        });
        self.rec.set_enabled(false);
    }

    /// Closes the connections and stops the servers, without checks.
    pub fn shut_down(self) {
        self.rig.shutdown();
    }

    /// `(calls, framed bytes)` counted while spans were recorded.
    #[must_use]
    pub fn wire(&self) -> (u64, u64) {
        self.rig.wire()
    }

    /// The untimed end-of-run checks, then an orderly shutdown: the
    /// Flowserver must be tracking exactly the flows not yet retired,
    /// and every file must still resolve to the replicas it was
    /// created with.
    pub fn verify_and_shut_down(self, tally: &mut Tally) {
        let outstanding = self.cookies.len();
        tally.note(self.rig.tracked().and_then(|tracked| {
            if tracked == outstanding && tracked == self.config.tracked {
                Ok(())
            } else {
                Err(format!(
                    "flowserver tracks {tracked} flows; {outstanding} are outstanding, want {}",
                    self.config.tracked
                ))
            }
        }));
        for (rank, want) in self.placed.iter().enumerate() {
            let found = self.rig.lookup(&file_name(rank as u32));
            tally.note(match found {
                Ok((replicas, 0)) if &replicas == want => Ok(()),
                other => Err(format!("file {rank}: final lookup gave {other:?}")),
            });
        }
        self.rig.shutdown();
    }
}
