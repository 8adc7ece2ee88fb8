//! Direct drives: each layer's public functions timed on their own,
//! on inputs of the shape the workloads generate. The calls themselves
//! live in `adapters.rs`; this file only times them.

use std::path::Path;
use std::time::Instant;

use crate::adapters::{
    drive_crc32, drive_ec_decode_degraded, drive_ec_encode, drive_nameserver_create,
    drive_nameserver_lookup, drive_nameserver_record_size, drive_queue_op, drive_rpc_decode,
    drive_rpc_encode, drive_rpc_frame_io, drive_rpc_inproc, nameserver_with_files, DataserverRig,
    Drive, EchoRig, FlowserverRig, KvRig, SimRig,
};
use crate::datadir::DataDir;
use crate::gen::Pattern;
use crate::stats::Summary;

/// Samples after warm-up; the issue asks for at least 30.
const SAMPLES: usize = 30;
const WARM_UP: usize = 3;

/// Seconds per iteration, one value per sample of `iters` iterations.
fn time_drive(mut drive: Drive<'_>, iters: u64) -> Summary {
    let mut per_iteration = Vec::with_capacity(SAMPLES);
    for sample in 0..WARM_UP + SAMPLES {
        let started = Instant::now();
        drive(iters);
        let seconds = started.elapsed().as_secs_f64();
        if sample >= WARM_UP {
            per_iteration.push(seconds / iters as f64);
        }
    }
    Summary::of(&per_iteration)
}

/// `bytes` per call at `s` seconds per call, as MB/s. Quartiles swap:
/// the slow quartile of time is the low quartile of throughput.
fn mb_per_s(s: Summary, bytes: u64) -> Summary {
    let mb = bytes as f64 / 1e6;
    Summary {
        n: s.n,
        q1: mb / s.q3,
        median: mb / s.median,
        q3: mb / s.q1,
        value: mb / s.value,
    }
}

/// Per-call costs the unattributed-share formulas need, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Costs {
    /// `read_local_into` of 1 MiB.
    pub ds_read_1m: f64,
    /// `read_local_into` of 4 KiB.
    pub ds_read_4k: f64,
    /// `append_local` of 1 MiB.
    pub ds_append_1m: f64,
    /// `append_local` of 4 KiB.
    pub ds_append_4k: f64,
    /// `read_fragment` of one 256 KiB shard.
    pub ds_fragment_read: f64,
    /// `encode_payload` of one 1 MiB chunk under 4+2.
    pub ec_encode_4_2: f64,
    /// `select_replica_path` against as many tracked flows as the
    /// 64-host replay keeps in flight.
    pub select_sim: f64,
    /// `poll_stats` over 64 tracked flows.
    pub poll: f64,
    /// One admission plus one completion on the 64-host fluid net.
    pub fluid_event_64: f64,
    /// The same on the 1024-host fluid net.
    pub fluid_event_1024: f64,
    /// One schedule plus one pop.
    pub queue_op: f64,
}

/// The direct-drive readings, by metric name, plus the raw costs.
pub struct Direct {
    /// `(metric name, summary in the metric's unit)`.
    pub readings: Vec<(&'static str, Summary)>,
    /// Medians in seconds.
    pub costs: Costs,
}

/// Runs every direct drive. `base` is where scratch directories go;
/// `concurrency` is the mean flows in flight of the 64- and 1024-host
/// replays, which sizes the simnet drives.
///
/// # Errors
///
/// Describes the first failure.
pub fn direct_drives(
    base: &Path,
    seed: u64,
    sim_64: &SimRig,
    sim_1024: &SimRig,
    concurrency: (f64, f64),
) -> Result<Direct, String> {
    let mut readings: Vec<(&'static str, Summary)> = Vec::new();
    let mut costs = Costs::default();
    let io = |e: std::io::Error| e.to_string();
    let pattern = Pattern::new(seed);
    let mut mib = vec![0u8; 1 << 20];
    pattern.fill(0xd1, 0, &mut mib);

    // nameserver and kvstore: the per-operation metadata path.
    {
        let dir = DataDir::create(base, "drive-ns").map_err(io)?;
        let files = 4096;
        let ns = nameserver_with_files(dir.path(), files)?;
        let s = time_drive(drive_nameserver_lookup(&ns, files), 200);
        readings.push(("nameserver.lookup_ns", s.scaled(1e9)));
        let s = time_drive(drive_nameserver_record_size(&ns, files), 10);
        readings.push(("nameserver.record_size_us", s.scaled(1e6)));
        let s = time_drive(drive_nameserver_create(&ns), 10);
        readings.push(("nameserver.create_us", s.scaled(1e6)));
    }
    {
        let dir = DataDir::create(base, "drive-kv").map_err(io)?;
        let mut kv = KvRig::open(dir.path(), 4096)?;
        readings.push((
            "kvstore.wal_bytes_per_put",
            Summary::exact(kv.wal_bytes_per_put(1000)?),
        ));
        let s = time_drive(kv.drive_put(), 100);
        readings.push(("kvstore.put_ns", s.scaled(1e9)));
        let s = time_drive(kv.drive_get(), 2000);
        readings.push(("kvstore.get_ns", s.scaled(1e9)));
        let s = time_drive(drive_crc32(&mib), 1);
        readings.push(("kvstore.crc32_mb_s", mb_per_s(s, 1 << 20)));
    }

    // flowserver: selection against tracked flows, and a stats poll.
    {
        let mut rig = FlowserverRig::new(64);
        let s = time_drive(rig.drive_select(), 50);
        readings.push(("flowserver.select_ns.t64", s.scaled(1e9)));
        let s = time_drive(rig.drive_poll(), 10);
        costs.poll = s.median;
        readings.push(("flowserver.poll_us", s.scaled(1e6)));
        let mut rig = FlowserverRig::new(1000);
        let s = time_drive(rig.drive_select(), 10);
        readings.push(("flowserver.select_ns.t1000", s.scaled(1e9)));
        let mut rig = FlowserverRig::new(concurrency.0.round() as usize);
        costs.select_sim = time_drive(rig.drive_select(), 50).median;
    }

    // rpc: envelope, framing, in-process dispatch and the loopback floor.
    {
        let s = time_drive(drive_rpc_encode(), 1000);
        readings.push(("rpc.encode_ns", s.scaled(1e9)));
        let s = time_drive(drive_rpc_decode(), 500);
        readings.push(("rpc.decode_ns", s.scaled(1e9)));
        let s = time_drive(drive_rpc_frame_io(), 2000);
        readings.push(("rpc.frame_io_ns", s.scaled(1e9)));
        let s = time_drive(drive_rpc_inproc(), 100);
        readings.push(("rpc.inproc_call_ns", s.scaled(1e9)));
        let echo = EchoRig::start()?;
        let s = time_drive(echo.drive(), 20);
        readings.push(("rpc.tcp_echo_us", s.scaled(1e6)));
        echo.shutdown();
    }

    // dataserver: chunk and fragment I/O.
    {
        let dir = DataDir::create(base, "drive-ds").map_err(io)?;
        let mut ds = DataserverRig::open(dir.path(), 1 << 20, 8 << 20, &mib)?;
        let s = time_drive(ds.drive_read(1 << 20), 2);
        costs.ds_read_1m = s.median;
        readings.push(("dataserver.read_1m_mb_s", mb_per_s(s, 1 << 20)));
        let s = time_drive(ds.drive_read(4 << 10), 50);
        costs.ds_read_4k = s.median;
        readings.push(("dataserver.read_4k_us", s.scaled(1e6)));
        let s = time_drive(ds.drive_read_meta(), 50);
        readings.push(("dataserver.read_meta_us", s.scaled(1e6)));
        let s = time_drive(ds.drive_fragment_read(&mib[..256 << 10], 16)?, 2);
        costs.ds_fragment_read = s.median;
        readings.push(("dataserver.fragment_read_mb_s", mb_per_s(s, 256 << 10)));
        let s = time_drive(ds.drive_append(&mib, 16 << 20)?, 2);
        costs.ds_append_1m = s.median;
        readings.push(("dataserver.append_1m_mb_s", mb_per_s(s, 1 << 20)));
        let s = time_drive(ds.drive_append(&mib[..4 << 10], 4 << 20)?, 10);
        costs.ds_append_4k = s.median;
        readings.push(("dataserver.append_4k_us", s.scaled(1e6)));
    }

    // ec: one 1 MiB chunk, as a coded append seals it.
    {
        let s = time_drive(drive_ec_encode(4, 2, &mib), 1);
        costs.ec_encode_4_2 = s.median;
        readings.push(("ec.encode_mb_s.4_2", mb_per_s(s, 1 << 20)));
        let s = time_drive(drive_ec_encode(6, 3, &mib), 1);
        readings.push(("ec.encode_mb_s.6_3", mb_per_s(s, 1 << 20)));
        let s = time_drive(drive_ec_decode_degraded(4, 2, &mib), 1);
        readings.push(("ec.decode_degraded_mb_s.4_2", mb_per_s(s, 1 << 20)));
    }

    // simnet and simcore: the simulator's inner loops.
    {
        let flows = |c: f64| c.round().max(1.0) as usize;
        let s = time_drive(sim_64.drive_maxmin(flows(concurrency.0)), 100);
        readings.push(("simnet.maxmin_us.64", s.scaled(1e6)));
        let s = time_drive(sim_1024.drive_maxmin(flows(concurrency.1)), 2);
        readings.push(("simnet.maxmin_us.1024", s.scaled(1e6)));
        let s = time_drive(sim_64.drive_fluid_event(flows(concurrency.0)), 20);
        costs.fluid_event_64 = s.median;
        readings.push(("simnet.fluid_event_us.64", s.scaled(1e6)));
        let s = time_drive(sim_1024.drive_fluid_event(flows(concurrency.1)), 1);
        costs.fluid_event_1024 = s.median;
        readings.push(("simnet.fluid_event_us.1024", s.scaled(1e6)));
        let s = time_drive(drive_queue_op(1024), 5000);
        costs.queue_op = s.median;
        readings.push(("simcore.queue_op_ns", s.scaled(1e9)));
    }

    Ok(Direct { readings, costs })
}
