//! The object records: everything the proxy knows about an object — the
//! name its slot was admitted under, the origin's header and the stored
//! prefix — is one record, owned by the engine shard the object's key
//! routes to and indexed by the shard's slot handle. The layout is this
//! module's alone: the stages read and change records only through
//! [`ShardRecords`]' methods, called under the shard's lock.

use std::sync::Arc;

/// What the origin's `OK` header says about an object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Header {
    /// Total object size in bytes.
    pub(super) size: u64,
    /// Encoding bit-rate in bytes per second.
    pub(super) bitrate_bps: f64,
}

/// Everything the proxy knows about one object: one record, owned by the
/// shard the object's key routes to.
#[derive(Debug)]
struct Record {
    /// The name the slot was first admitted under. Keys are 64-bit hashes
    /// of client-supplied names, so two names can share a key (and with it
    /// a slot); the record belongs to this name only, and a request under
    /// any other name neither reads nor writes it.
    name: String,
    /// Learned from the origin on first contact.
    header: Header,
    /// The stored prefix (empty when nothing is cached); never longer than
    /// the engine's allocation for the slot.
    prefix: Arc<[u8]>,
}

/// One shard's records, indexed by the shard engine's slot handle: the
/// [`sc_cache::ShardedEngine`] companion, so it is only ever touched under
/// the lock of the engine whose decisions it mirrors.
#[derive(Debug, Default)]
pub(super) struct ShardRecords {
    by_slot: Vec<Option<Record>>,
    /// Running totals over `by_slot`'s prefixes, so `STATS` never walks.
    stored_bytes: u64,
    stored_objects: usize,
}

/// What the owning shard knows about a requested name.
pub(super) struct Lookup {
    /// From the name's record; `None` on first contact.
    pub(super) known: Option<Header>,
    /// The stored prefix (empty when nothing is cached).
    pub(super) cached: Arc<[u8]>,
    /// `false` when the key's slot already belongs to a *different* name
    /// (a 64-bit key collision): this request is relayed uncached.
    pub(super) ours: bool,
}

impl ShardRecords {
    /// What the record at `slot` holds for `name`: nothing unless the
    /// record is `name`'s own.
    pub(super) fn lookup(&self, slot: Option<u32>, name: &str) -> Lookup {
        let ours = self.admits(slot, name);
        let record = self.at(slot).filter(|_| ours);
        Lookup {
            known: record.map(|r| r.header),
            cached: record.map_or_else(Arc::default, |r| Arc::clone(&r.prefix)),
            ours,
        }
    }

    /// Admits `name` to `slot`, which the engine has just interned or
    /// accessed: a first contact gets its record, under `header` and with
    /// nothing stored. `false`, and the record left alone, when the slot
    /// belongs to another name.
    pub(super) fn admit(&mut self, slot: u32, name: &str, header: Header) -> bool {
        if !self.admits(Some(slot), name) {
            return false;
        }
        let index = slot as usize;
        if self.by_slot.len() <= index {
            self.by_slot.resize_with(index + 1, || None);
        }
        self.by_slot[index].get_or_insert_with(|| Record {
            name: name.to_string(),
            header,
            prefix: Arc::default(),
        });
        true
    }

    /// Drops the prefix of a slot the engine evicted (it evicts whole).
    pub(super) fn evict(&mut self, slot: u32) {
        self.replace(slot, Arc::default());
    }

    /// Grows the prefix at `slot` from the bytes in hand — `prefix`
    /// followed by `retained` — to `min(granted, prefix + retained)`, and
    /// never shrinks it: a stored prefix is never longer than `granted`,
    /// the slot's allocation read under this same lock.
    pub(super) fn grow(&mut self, slot: u32, granted: usize, prefix: &[u8], retained: &[u8]) {
        let record = self
            .at(Some(slot))
            .expect("decide made the record of the name it kept bytes for");
        let stored = record.prefix.len();
        debug_assert!(
            stored <= granted,
            "`{}` stored {stored} B but the engine granted {granted}",
            record.name
        );
        let usable = granted.min(prefix.len() + retained.len());
        if usable > stored {
            let cached = &prefix[..prefix.len().min(usable)];
            let kept = &retained[..usable - cached.len()];
            self.replace(slot, Arc::from([cached, kept].concat()));
        }
    }

    /// The shard's totals: objects holding a prefix, and its bytes.
    pub(super) fn totals(&self) -> (usize, u64) {
        (self.stored_objects, self.stored_bytes)
    }

    /// The name of the record at `slot` and the bytes it holds.
    pub(super) fn entry(&self, slot: Option<u32>) -> Option<(&str, usize)> {
        self.at(slot).map(|r| (r.name.as_str(), r.prefix.len()))
    }

    /// The record at `slot`, whichever name it belongs to.
    fn at(&self, slot: Option<u32>) -> Option<&Record> {
        self.by_slot.get(slot? as usize)?.as_ref()
    }

    /// Whether `name` may use `slot`: nobody's yet, or this very name's.
    fn admits(&self, slot: Option<u32>, name: &str) -> bool {
        self.at(slot).is_none_or(|r| r.name == name)
    }

    /// Replaces the prefix stored at `slot` (empty = drop it).
    fn replace(&mut self, slot: u32, prefix: Arc<[u8]>) {
        let record = self.by_slot[slot as usize]
            .as_mut()
            .expect("the access that interns a slot creates its record");
        self.stored_bytes = self.stored_bytes - record.prefix.len() as u64 + prefix.len() as u64;
        self.stored_objects = self.stored_objects - usize::from(!record.prefix.is_empty())
            + usize::from(!prefix.is_empty());
        record.prefix = prefix;
    }
}
