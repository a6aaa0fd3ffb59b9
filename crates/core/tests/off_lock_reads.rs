//! A chunk read finds its descriptor under the engine lock, then reads and
//! validates the version off it (§4.5 done outside §4.2's one lock). These
//! tests park that device read and act on the store meanwhile: mutations
//! must not wait for it, and a version moved under it must not be taken
//! for tampering.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tdb_core::store::{ChunkStore, ChunkStoreConfig, CommitOp, TrustedBackend};
use tdb_core::{ChunkId, CryptoParams};
use tdb_crypto::{CipherKind, HashKind, SecretKey};
use tdb_storage::{
    CounterOverTrusted, MemStore, MemTrustedStore, SharedUntrusted, StoreStats, TrustedStore,
    UntrustedStore,
};

/// How long a mutation may take while a read is parked.
const TIMEOUT: Duration = Duration::from_secs(10);

/// An in-memory device that parks the next read at one armed offset until
/// the test releases it.
struct ParkingDevice {
    image: MemStore,
    park_at: Mutex<Option<u64>>,
    parked: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
}

/// The test's side of a [`ParkingDevice`]: hears a read park, lets it go.
struct Controls {
    parked: Receiver<()>,
    release: Sender<()>,
}

impl ParkingDevice {
    fn new() -> (Arc<ParkingDevice>, Controls) {
        let (parked_tx, parked) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let device = ParkingDevice {
            image: MemStore::new(),
            park_at: Mutex::new(None),
            parked: Mutex::new(parked_tx),
            release: Mutex::new(release_rx),
        };
        (Arc::new(device), Controls { parked, release })
    }

    fn arm(&self, offset: u64) {
        *self.park_at.lock().unwrap() = Some(offset);
    }
}

impl UntrustedStore for ParkingDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> tdb_storage::Result<()> {
        let park = {
            let mut at = self.park_at.lock().unwrap();
            *at == Some(offset) && at.take().is_some()
        };
        if park {
            self.parked.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
        self.image.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> tdb_storage::Result<()> {
        self.image.write_at(offset, data)
    }

    fn flush(&self) -> tdb_storage::Result<()> {
        self.image.flush()
    }

    fn len(&self) -> tdb_storage::Result<u64> {
        self.image.len()
    }

    fn set_len(&self, len: u64) -> tdb_storage::Result<()> {
        self.image.set_len(len)
    }

    fn stats(&self) -> Arc<StoreStats> {
        self.image.stats()
    }
}

/// A store on a parking device with one DES+SHA-1 partition and two
/// written chunks.
fn store_with_two_chunks() -> (ChunkStore, Arc<ParkingDevice>, Controls, [ChunkId; 2]) {
    let (device, controls) = ParkingDevice::new();
    let register = Arc::new(MemTrustedStore::new(64)) as Arc<dyn TrustedStore>;
    let store = ChunkStore::create(
        Arc::clone(&device) as SharedUntrusted,
        TrustedBackend::Counter(Arc::new(CounterOverTrusted::new(register))),
        SecretKey::random(24),
        ChunkStoreConfig::default(),
    )
    .unwrap();
    let p = store.allocate_partition().unwrap();
    let params = CryptoParams::generate(CipherKind::Des, HashKind::Sha1);
    store
        .commit(vec![CommitOp::CreatePartition { id: p, params }])
        .unwrap();
    let ids = [0, 1].map(|_| store.allocate_chunk(p).unwrap());
    for (i, id) in ids.iter().enumerate() {
        write(&store, *id, &body(i as u8));
    }
    (store, device, controls, ids)
}

fn body(version: u8) -> Vec<u8> {
    vec![version; 700]
}

fn write(store: &ChunkStore, id: ChunkId, bytes: &[u8]) {
    let ops = vec![CommitOp::WriteChunk {
        id,
        bytes: bytes.to_vec(),
    }];
    store.commit(ops).unwrap();
}

/// Parks a read of `id` in its device read, runs `mutate` on another
/// thread, and lets the read go once `mutate` has finished or [`TIMEOUT`]
/// has passed. Returns whether `mutate` finished first, and the read's
/// result.
fn race_a_parked_read(
    store: &ChunkStore,
    device: &ParkingDevice,
    controls: &Controls,
    id: ChunkId,
    mutate: impl FnOnce() + Send,
) -> (bool, tdb_core::Result<Vec<u8>>) {
    device.arm(store.debug_descriptor(id).unwrap().location);
    std::thread::scope(|s| {
        let reader = s.spawn(|| store.read(id));
        controls
            .parked
            .recv_timeout(TIMEOUT)
            .expect("the read parks");
        let (done_tx, done) = mpsc::channel();
        let mutator = s.spawn(move || {
            mutate();
            let _ = done_tx.send(());
        });
        let finished = done.recv_timeout(TIMEOUT).is_ok();
        controls.release.send(()).unwrap();
        mutator.join().unwrap();
        (finished, reader.join().unwrap())
    })
}

/// While one read sits in its device read, a commit and a checkpoint on
/// another thread finish: the read holds no engine lock there. Then the
/// read returns the body committed before it began.
#[test]
fn reads_validate_off_the_engine_lock() {
    let (store, device, controls, [a, b]) = store_with_two_chunks();
    let (finished, read) = race_a_parked_read(&store, &device, &controls, a, || {
        write(&store, b, &body(7));
        store.checkpoint().unwrap();
    });
    assert!(
        finished,
        "a commit and a checkpoint waited for a parked read"
    );
    assert_eq!(read.unwrap(), body(0));
    assert_eq!(store.read(b).unwrap(), body(7));
}

/// A read parks after its descriptor was found; a commit gives the chunk
/// a new version, and the old version's bytes are overwritten on the
/// device, as a recycled segment's would be. The read's validation fails
/// off the lock, and its retry under the lock returns the new body: no
/// tamper error, and the store stays live.
#[test]
fn a_read_whose_version_moved_before_it_validated_returns_the_current_body() {
    let (store, device, controls, [a, _]) = store_with_two_chunks();
    let stale = store.debug_descriptor(a).unwrap();
    let (finished, read) = race_a_parked_read(&store, &device, &controls, a, || {
        write(&store, a, &body(9));
        let scribble = vec![0xA5; stale.vlen as usize];
        device.image.write_at(stale.location, &scribble).unwrap();
    });
    assert!(finished, "the commit waited for a parked read");
    assert_ne!(store.debug_descriptor(a).unwrap().location, stale.location);
    assert_eq!(read.unwrap(), body(9));
    assert!(store.health().is_live(), "{:?}", store.health());
    assert_eq!(store.read(a).unwrap(), body(9));
}
