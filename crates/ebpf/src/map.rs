//! eBPF maps: the kernel↔user shared data structures trace programs
//! store their results in.
//!
//! vNetTracer's trace scripts keep intermediate data "temporarily stored in
//! the eBPF data structures inside kernel" (§II) and ship records to user
//! space through a perf buffer; the agent drains them periodically. Four
//! map types cover everything the paper's scripts need:
//!
//! * [`MapType::Hash`] — keyed records (per-flow counters, per-packet
//!   timestamps keyed by trace ID),
//! * [`MapType::Array`] — fixed slots (configuration, histograms),
//! * [`MapType::PerCpuArray`] — per-CPU slots (softirq distribution,
//!   Fig. 13a),
//! * [`MapType::PerfEventArray`] — per-CPU ring buffers for streaming
//!   trace records to user space.

use std::collections::HashMap;

/// Minimum perf buffer size in bytes (paper footnote 1: "the buffer size
/// range is from 32 bytes to 128k-16 bytes").
pub const MIN_BUFFER_SIZE: usize = 32;
/// Maximum perf buffer size in bytes (see [`MIN_BUFFER_SIZE`]).
pub const MAX_BUFFER_SIZE: usize = 128 * 1024 - 16;

/// The kind of map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapType {
    /// Hash table keyed by arbitrary fixed-size keys.
    Hash,
    /// Array indexed by a little-endian `u32` key.
    Array,
    /// Per-CPU array: each CPU sees its own slot, avoiding cache-line
    /// contention on hot counters.
    PerCpuArray,
    /// Per-CPU ring buffers written by `perf_event_output`.
    PerfEventArray,
}

/// Map definition: type and dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapDef {
    /// The map type.
    pub map_type: MapType,
    /// Key size in bytes (must be 4 for array types).
    pub key_size: u32,
    /// Value size in bytes.
    pub value_size: u32,
    /// Maximum number of entries (array length; hash capacity). For
    /// [`MapType::PerfEventArray`] this is the per-CPU buffer size in
    /// bytes, constrained to `32..=128*1024-16`.
    pub max_entries: u32,
}

impl MapDef {
    /// A hash map definition.
    pub fn hash(key_size: u32, value_size: u32, max_entries: u32) -> Self {
        MapDef {
            map_type: MapType::Hash,
            key_size,
            value_size,
            max_entries,
        }
    }

    /// An array definition.
    pub fn array(value_size: u32, max_entries: u32) -> Self {
        MapDef {
            map_type: MapType::Array,
            key_size: 4,
            value_size,
            max_entries,
        }
    }

    /// A per-CPU array definition.
    pub fn per_cpu_array(value_size: u32, max_entries: u32) -> Self {
        MapDef {
            map_type: MapType::PerCpuArray,
            key_size: 4,
            value_size,
            max_entries,
        }
    }

    /// A perf event array with the given per-CPU buffer size in bytes.
    pub fn perf(buffer_size: u32) -> Self {
        MapDef {
            map_type: MapType::PerfEventArray,
            key_size: 4,
            value_size: 0,
            max_entries: buffer_size,
        }
    }
}

/// Errors from map operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// Key or value length did not match the definition.
    BadSize {
        /// What was expected.
        expected: usize,
        /// What was provided.
        got: usize,
    },
    /// Array index out of range.
    IndexOutOfBounds(u32),
    /// Hash map is at `max_entries` and the key is new.
    Full,
    /// Key not present.
    NotFound,
    /// The map definition is invalid (e.g. perf buffer size outside
    /// `32..=128k-16`, or zero-sized keys/values).
    BadDefinition(String),
    /// Operation unsupported for this map type.
    WrongType,
}

impl core::fmt::Display for MapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MapError::BadSize { expected, got } => {
                write!(f, "expected {expected} bytes, got {got}")
            }
            MapError::IndexOutOfBounds(i) => write!(f, "index {i} out of bounds"),
            MapError::Full => f.write_str("map is full"),
            MapError::NotFound => f.write_str("key not found"),
            MapError::BadDefinition(s) => write!(f, "invalid map definition: {s}"),
            MapError::WrongType => f.write_str("operation unsupported for this map type"),
        }
    }
}

impl std::error::Error for MapError {}

/// One per-CPU perf ring, kept as a bounded append buffer: a record
/// that fits in what the pending records leave of `capacity` bytes is
/// appended to `buf` and its length to `lens`; one that does not is
/// counted lost. Every drain empties the ring, so the pending records
/// always lie back to back from byte 0, and the ring's memory follows the
/// most it has held between drains rather than its capacity.
#[derive(Debug, Clone)]
struct PerfRing {
    capacity: usize,
    buf: Vec<u8>,
    lens: Vec<u32>,
    lost: u64,
}

impl PerfRing {
    fn new(capacity: usize) -> Self {
        PerfRing {
            capacity,
            buf: Vec::new(),
            lens: Vec::new(),
            lost: 0,
        }
    }

    fn push(&mut self, record: &[u8]) {
        if record.len() > self.capacity - self.buf.len() {
            self.lost += 1;
            return;
        }
        self.buf.extend_from_slice(record);
        self.lens.push(record.len() as u32);
    }

    fn drain_with(&mut self, f: &mut dyn FnMut(&[u8])) -> usize {
        let mut start = 0;
        for &len in &self.lens {
            let end = start + len as usize;
            f(&self.buf[start..end]);
            start = end;
        }
        let drained = self.lens.len();
        self.buf.clear();
        self.lens.clear();
        drained
    }
}

#[derive(Debug, Clone)]
enum Storage {
    Hash(HashMap<Vec<u8>, Vec<u8>>),
    Array(Vec<Vec<u8>>),
    PerCpu(Vec<Vec<Vec<u8>>>),
    Perf(Vec<PerfRing>),
}

/// A live map instance.
#[derive(Debug, Clone)]
pub struct Map {
    def: MapDef,
    storage: Storage,
}

impl Map {
    /// Creates a map for `num_cpus` CPUs.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::BadDefinition`] for invalid dimensions — in
    /// particular a perf buffer size outside the paper's documented
    /// `32..=128k-16` byte range.
    pub fn new(def: MapDef, num_cpus: usize) -> Result<Self, MapError> {
        let cpus = num_cpus.max(1);
        let storage = match def.map_type {
            MapType::Hash => {
                if def.key_size == 0 || def.value_size == 0 || def.max_entries == 0 {
                    return Err(MapError::BadDefinition("zero-sized hash dimension".into()));
                }
                Storage::Hash(HashMap::new())
            }
            MapType::Array => {
                if def.key_size != 4 {
                    return Err(MapError::BadDefinition("array key must be 4 bytes".into()));
                }
                if def.value_size == 0 || def.max_entries == 0 {
                    return Err(MapError::BadDefinition("zero-sized array dimension".into()));
                }
                Storage::Array(vec![
                    vec![0; def.value_size as usize];
                    def.max_entries as usize
                ])
            }
            MapType::PerCpuArray => {
                if def.key_size != 4 {
                    return Err(MapError::BadDefinition("array key must be 4 bytes".into()));
                }
                if def.value_size == 0 || def.max_entries == 0 {
                    return Err(MapError::BadDefinition("zero-sized array dimension".into()));
                }
                Storage::PerCpu(vec![
                    vec![
                        vec![0; def.value_size as usize];
                        def.max_entries as usize
                    ];
                    cpus
                ])
            }
            MapType::PerfEventArray => {
                let size = def.max_entries as usize;
                if !(MIN_BUFFER_SIZE..=MAX_BUFFER_SIZE).contains(&size) {
                    return Err(MapError::BadDefinition(format!(
                        "perf buffer size {size} outside {MIN_BUFFER_SIZE}..={MAX_BUFFER_SIZE}"
                    )));
                }
                Storage::Perf(vec![PerfRing::new(size); cpus])
            }
        };
        Ok(Map { def, storage })
    }

    /// The map's definition.
    pub fn def(&self) -> MapDef {
        self.def
    }

    fn check_key(&self, key: &[u8]) -> Result<(), MapError> {
        if key.len() != self.def.key_size as usize {
            return Err(MapError::BadSize {
                expected: self.def.key_size as usize,
                got: key.len(),
            });
        }
        Ok(())
    }

    fn array_index(&self, key: &[u8]) -> Result<usize, MapError> {
        self.check_key(key)?;
        let idx = u32::from_le_bytes([key[0], key[1], key[2], key[3]]);
        if idx >= self.def.max_entries {
            return Err(MapError::IndexOutOfBounds(idx));
        }
        Ok(idx as usize)
    }

    /// Looks up a value; `cpu` selects the slot for per-CPU maps.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::NotFound`] when absent, or a size/type error.
    pub fn lookup(&mut self, key: &[u8], cpu: usize) -> Result<&mut [u8], MapError> {
        match &mut self.storage {
            Storage::Hash(h) => {
                if key.len() != self.def.key_size as usize {
                    return Err(MapError::BadSize {
                        expected: self.def.key_size as usize,
                        got: key.len(),
                    });
                }
                h.get_mut(key)
                    .map(|v| v.as_mut_slice())
                    .ok_or(MapError::NotFound)
            }
            Storage::Array(slots) => {
                let idx = {
                    let def = self.def;
                    if key.len() != def.key_size as usize {
                        return Err(MapError::BadSize {
                            expected: def.key_size as usize,
                            got: key.len(),
                        });
                    }
                    let idx = u32::from_le_bytes([key[0], key[1], key[2], key[3]]);
                    if idx >= def.max_entries {
                        return Err(MapError::IndexOutOfBounds(idx));
                    }
                    idx as usize
                };
                Ok(slots[idx].as_mut_slice())
            }
            Storage::PerCpu(cpus) => {
                let def = self.def;
                if key.len() != def.key_size as usize {
                    return Err(MapError::BadSize {
                        expected: def.key_size as usize,
                        got: key.len(),
                    });
                }
                let idx = u32::from_le_bytes([key[0], key[1], key[2], key[3]]);
                if idx >= def.max_entries {
                    return Err(MapError::IndexOutOfBounds(idx));
                }
                let c = cpu % cpus.len();
                Ok(cpus[c][idx as usize].as_mut_slice())
            }
            Storage::Perf(_) => Err(MapError::WrongType),
        }
    }

    /// Inserts or overwrites a value.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::Full`] for a new key in a full hash map, or a
    /// size/type error.
    pub fn update(&mut self, key: &[u8], value: &[u8], cpu: usize) -> Result<(), MapError> {
        if value.len() != self.def.value_size as usize {
            return Err(MapError::BadSize {
                expected: self.def.value_size as usize,
                got: value.len(),
            });
        }
        match &mut self.storage {
            Storage::Hash(h) => {
                if key.len() != self.def.key_size as usize {
                    return Err(MapError::BadSize {
                        expected: self.def.key_size as usize,
                        got: key.len(),
                    });
                }
                if !h.contains_key(key) && h.len() >= self.def.max_entries as usize {
                    return Err(MapError::Full);
                }
                h.insert(key.to_vec(), value.to_vec());
                Ok(())
            }
            Storage::Array(_) => {
                let idx = self.array_index(key)?;
                if let Storage::Array(slots) = &mut self.storage {
                    slots[idx].copy_from_slice(value);
                }
                Ok(())
            }
            Storage::PerCpu(_) => {
                let idx = self.array_index(key)?;
                if let Storage::PerCpu(cpus) = &mut self.storage {
                    let n = cpus.len();
                    cpus[cpu % n][idx].copy_from_slice(value);
                }
                Ok(())
            }
            Storage::Perf(_) => Err(MapError::WrongType),
        }
    }

    /// Deletes a key (hash maps only).
    ///
    /// # Errors
    ///
    /// Returns [`MapError::NotFound`] if absent, [`MapError::WrongType`]
    /// for non-hash maps.
    pub fn delete(&mut self, key: &[u8]) -> Result<(), MapError> {
        match &mut self.storage {
            Storage::Hash(h) => {
                if key.len() != self.def.key_size as usize {
                    return Err(MapError::BadSize {
                        expected: self.def.key_size as usize,
                        got: key.len(),
                    });
                }
                h.remove(key).map(|_| ()).ok_or(MapError::NotFound)
            }
            _ => Err(MapError::WrongType),
        }
    }

    /// Iterates over hash-map entries (key, value).
    pub fn iter_hash(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        let entries: Vec<(&[u8], &[u8])> = match &self.storage {
            Storage::Hash(h) => h
                .iter()
                .map(|(k, v)| (k.as_slice(), v.as_slice()))
                .collect(),
            _ => Vec::new(),
        };
        entries.into_iter()
    }

    /// Pushes a record into the perf ring of `cpu`
    /// (`bpf_perf_event_output`). Oversized or overflowing records are
    /// counted as lost, mirroring perf buffer semantics.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::WrongType`] for non-perf maps, and
    /// [`MapError::IndexOutOfBounds`] for a `cpu` past the last ring (the
    /// kernel's `-E2BIG`), storing nothing and counting nothing lost.
    pub fn perf_output(&mut self, cpu: usize, record: &[u8]) -> Result<(), MapError> {
        match &mut self.storage {
            Storage::Perf(rings) => {
                let ring = rings.get_mut(cpu).ok_or_else(|| {
                    MapError::IndexOutOfBounds(u32::try_from(cpu).unwrap_or(u32::MAX))
                })?;
                ring.push(record);
                Ok(())
            }
            _ => Err(MapError::WrongType),
        }
    }

    /// Number of per-CPU rings of a perf map (0 for other maps).
    pub(crate) fn perf_rings(&self) -> usize {
        match &self.storage {
            Storage::Perf(rings) => rings.len(),
            _ => 0,
        }
    }

    /// Drains `cpu`'s perf ring whole, in FIFO order, calling `f` with
    /// each record's bytes — the zero-allocation drain the batched
    /// collection path uses. The slice passed to `f` is only valid for
    /// the duration of the call. The ring keeps its memory for the next
    /// records. Returns the number of records drained (0 for non-perf
    /// maps).
    pub fn perf_drain_with(&mut self, cpu: usize, mut f: impl FnMut(&[u8])) -> usize {
        match &mut self.storage {
            Storage::Perf(rings) => {
                let n = rings.len();
                rings[cpu % n].drain_with(&mut f)
            }
            _ => 0,
        }
    }

    /// Drains all records from `cpu`'s perf ring (the agent's periodic
    /// buffer dump), allocating a `Vec` per record.
    pub fn perf_drain(&mut self, cpu: usize) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        self.perf_drain_with(cpu, |raw| out.push(raw.to_vec()));
        out
    }

    /// Drains records from every CPU's ring, in CPU order.
    pub fn perf_drain_all(&mut self) -> Vec<Vec<u8>> {
        (0..self.perf_rings())
            .flat_map(|c| self.perf_drain(c))
            .collect()
    }

    /// Number of records lost to ring overflow on `cpu`.
    pub fn perf_lost(&self, cpu: usize) -> u64 {
        match &self.storage {
            Storage::Perf(rings) => rings[cpu % rings.len()].lost,
            _ => 0,
        }
    }
}

/// A table of live maps, indexed by fd. Shared between the loader, the VM
/// and the agent that reads results. An fd is a slot position baked into
/// relocated programs, so slots are never renumbered or handed out
/// twice: removing a map vacates its slot for the registry's life.
#[derive(Debug, Default)]
pub struct MapRegistry {
    maps: Vec<Option<Map>>,
}

impl MapRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a map and returns its fd.
    ///
    /// # Errors
    ///
    /// Propagates [`MapError::BadDefinition`] from [`Map::new`].
    pub fn create(&mut self, def: MapDef, num_cpus: usize) -> Result<i32, MapError> {
        let map = Map::new(def, num_cpus)?;
        self.maps.push(Some(map));
        Ok((self.maps.len() - 1) as i32)
    }

    /// Removes a map, freeing its storage, and returns it; `None` if
    /// `fd` names no live map. A program still holding the fd sees a
    /// missing map from then on.
    pub fn remove(&mut self, fd: i32) -> Option<Map> {
        let slot = self.maps.get_mut(usize::try_from(fd).ok()?)?;
        slot.take()
    }

    /// Borrows a map by fd.
    pub fn get(&self, fd: i32) -> Option<&Map> {
        self.maps.get(usize::try_from(fd).ok()?)?.as_ref()
    }

    /// Mutably borrows a map by fd.
    pub fn get_mut(&mut self, fd: i32) -> Option<&mut Map> {
        self.maps.get_mut(usize::try_from(fd).ok()?)?.as_mut()
    }

    /// Number of live maps.
    pub fn len(&self) -> usize {
        self.maps.iter().flatten().count()
    }

    /// Whether the registry holds no live maps.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_crud() {
        let mut m = Map::new(MapDef::hash(4, 8, 2), 1).unwrap();
        assert_eq!(m.lookup(&[1, 0, 0, 0], 0), Err(MapError::NotFound));
        m.update(&[1, 0, 0, 0], &7u64.to_le_bytes(), 0).unwrap();
        assert_eq!(m.lookup(&[1, 0, 0, 0], 0).unwrap(), &7u64.to_le_bytes());
        m.update(&[2, 0, 0, 0], &8u64.to_le_bytes(), 0).unwrap();
        // Full for new keys, fine for existing.
        assert_eq!(
            m.update(&[3, 0, 0, 0], &9u64.to_le_bytes(), 0),
            Err(MapError::Full)
        );
        m.update(&[1, 0, 0, 0], &10u64.to_le_bytes(), 0).unwrap();
        m.delete(&[1, 0, 0, 0]).unwrap();
        assert_eq!(m.delete(&[1, 0, 0, 0]), Err(MapError::NotFound));
        assert_eq!(m.iter_hash().count(), 1);
    }

    #[test]
    fn hash_rejects_bad_sizes() {
        let mut m = Map::new(MapDef::hash(4, 8, 4), 1).unwrap();
        assert!(matches!(
            m.lookup(&[1, 2], 0),
            Err(MapError::BadSize {
                expected: 4,
                got: 2
            })
        ));
        assert!(matches!(
            m.update(&[1, 0, 0, 0], &[0; 3], 0),
            Err(MapError::BadSize {
                expected: 8,
                got: 3
            })
        ));
    }

    #[test]
    fn array_indexing() {
        let mut m = Map::new(MapDef::array(8, 4), 1).unwrap();
        m.update(&2u32.to_le_bytes(), &42u64.to_le_bytes(), 0)
            .unwrap();
        assert_eq!(
            m.lookup(&2u32.to_le_bytes(), 0).unwrap(),
            &42u64.to_le_bytes()
        );
        assert_eq!(
            m.lookup(&9u32.to_le_bytes(), 0),
            Err(MapError::IndexOutOfBounds(9))
        );
        // Arrays are pre-initialised to zero.
        assert_eq!(
            m.lookup(&0u32.to_le_bytes(), 0).unwrap(),
            &0u64.to_le_bytes()
        );
    }

    #[test]
    fn per_cpu_array_isolates_cpus() {
        let mut m = Map::new(MapDef::per_cpu_array(8, 1), 4).unwrap();
        m.update(&0u32.to_le_bytes(), &1u64.to_le_bytes(), 0)
            .unwrap();
        m.update(&0u32.to_le_bytes(), &2u64.to_le_bytes(), 3)
            .unwrap();
        assert_eq!(
            m.lookup(&0u32.to_le_bytes(), 0).unwrap(),
            &1u64.to_le_bytes()
        );
        assert_eq!(
            m.lookup(&0u32.to_le_bytes(), 3).unwrap(),
            &2u64.to_le_bytes()
        );
    }

    #[test]
    fn in_place_mutation_through_lookup() {
        let mut m = Map::new(MapDef::array(8, 1), 1).unwrap();
        {
            let v = m.lookup(&0u32.to_le_bytes(), 0).unwrap();
            let n = u64::from_le_bytes(v.try_into().unwrap()) + 5;
            v.copy_from_slice(&n.to_le_bytes());
        }
        assert_eq!(
            m.lookup(&0u32.to_le_bytes(), 0).unwrap(),
            &5u64.to_le_bytes()
        );
    }

    #[test]
    fn perf_ring_push_drain_lost() {
        let mut m = Map::new(MapDef::perf(64), 2).unwrap();
        m.perf_output(0, &[1; 32]).unwrap();
        m.perf_output(0, &[2; 32]).unwrap();
        m.perf_output(0, &[3; 8]).unwrap(); // 64 used, overflow
        assert_eq!(m.perf_lost(0), 1);
        let drained = m.perf_drain(0);
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0], vec![1; 32]);
        // After drain, space is free again.
        m.perf_output(0, &[4; 8]).unwrap();
        assert_eq!(m.perf_drain_all().len(), 1);
    }

    #[test]
    fn perf_oversized_record_is_lost_not_truncated() {
        let mut m = Map::new(MapDef::perf(32), 1).unwrap();
        // A record bigger than the whole buffer can never fit.
        m.perf_output(0, &[9; 33]).unwrap();
        assert_eq!(m.perf_lost(0), 1);
        assert!(m.perf_drain(0).is_empty(), "nothing partial was stored");
        // Exactly buffer-sized fits.
        m.perf_output(0, &[7; 32]).unwrap();
        assert_eq!(m.perf_lost(0), 1);
        assert_eq!(m.perf_drain(0), vec![vec![7; 32]]);
    }

    #[test]
    fn perf_overflow_increments_lost_exactly() {
        let mut m = Map::new(MapDef::perf(32), 1).unwrap();
        // Two 16-byte records fill the buffer exactly.
        m.perf_output(0, &[1; 16]).unwrap();
        m.perf_output(0, &[2; 16]).unwrap();
        assert_eq!(m.perf_lost(0), 0);
        // Every further push is lost, one count each — even a 1-byte one.
        m.perf_output(0, &[3; 16]).unwrap();
        m.perf_output(0, &[4; 1]).unwrap();
        assert_eq!(m.perf_lost(0), 2);
        // Draining frees the space; the lost counter is cumulative.
        assert_eq!(m.perf_drain(0).len(), 2);
        m.perf_output(0, &[5; 8]).unwrap();
        assert_eq!(m.perf_lost(0), 2);
        assert_eq!(m.perf_drain(0), vec![vec![5; 8]]);
    }

    #[test]
    fn perf_output_past_the_last_ring_is_an_error() {
        let mut m = Map::new(MapDef::perf(64), 4).unwrap();
        assert_eq!(
            m.perf_output(4, &[1; 8]),
            Err(MapError::IndexOutOfBounds(4))
        );
        assert_eq!(
            m.perf_output(5, &[1; 8]),
            Err(MapError::IndexOutOfBounds(5))
        );
        assert!(m.perf_drain_all().is_empty());
        assert_eq!((0..4).map(|c| m.perf_lost(c)).sum::<u64>(), 0);
        m.perf_output(3, &[2; 8]).unwrap();
        assert_eq!(m.perf_drain(3), vec![vec![2; 8]]);
    }

    #[test]
    fn perf_drain_with_on_non_perf_map_is_a_no_op() {
        let mut arr = Map::new(MapDef::array(4, 1), 1).unwrap();
        let mut called = false;
        assert_eq!(arr.perf_drain_with(0, |_| called = true), 0);
        assert!(!called);
    }

    #[test]
    fn perf_buffer_size_limits_enforced() {
        assert!(Map::new(MapDef::perf(31), 1).is_err(), "below 32 bytes");
        assert!(Map::new(MapDef::perf(32), 1).is_ok());
        assert!(Map::new(MapDef::perf(128 * 1024 - 16), 1).is_ok());
        assert!(
            Map::new(MapDef::perf(128 * 1024 - 15), 1).is_err(),
            "above 128k-16"
        );
    }

    #[test]
    fn bad_definitions_rejected() {
        assert!(Map::new(MapDef::hash(0, 8, 4), 1).is_err());
        assert!(Map::new(MapDef::array(0, 4), 1).is_err());
        assert!(Map::new(
            MapDef {
                map_type: MapType::Array,
                key_size: 8,
                value_size: 8,
                max_entries: 1
            },
            1
        )
        .is_err());
    }

    #[test]
    fn wrong_type_operations() {
        let mut perf = Map::new(MapDef::perf(64), 1).unwrap();
        assert_eq!(
            perf.lookup(&0u32.to_le_bytes(), 0),
            Err(MapError::WrongType)
        );
        let mut arr = Map::new(MapDef::array(4, 1), 1).unwrap();
        assert_eq!(arr.perf_output(0, &[1]), Err(MapError::WrongType));
        assert_eq!(arr.delete(&0u32.to_le_bytes()), Err(MapError::WrongType));
    }

    #[test]
    fn registry_assigns_fds() {
        let mut reg = MapRegistry::new();
        let fd0 = reg.create(MapDef::hash(4, 4, 4), 1).unwrap();
        let fd1 = reg.create(MapDef::array(4, 4), 1).unwrap();
        assert_eq!((fd0, fd1), (0, 1));
        assert!(reg.get(fd1).is_some());
        assert!(reg.get(99).is_none());
        assert!(reg.get(-1).is_none());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn registry_remove_vacates_the_slot() {
        let mut reg = MapRegistry::new();
        let fd0 = reg.create(MapDef::hash(4, 4, 4), 1).unwrap();
        let fd1 = reg.create(MapDef::array(4, 4), 1).unwrap();
        assert!(reg.remove(fd0).is_some());
        assert!(reg.remove(fd0).is_none(), "already gone");
        assert!(reg.remove(99).is_none());
        assert!(reg.remove(-1).is_none());
        assert!(reg.get(fd0).is_none() && reg.get_mut(fd0).is_none());
        assert_eq!(reg.len(), 1);
        // The survivor keeps its fd and a new map gets a fresh one.
        assert!(reg.get(fd1).is_some());
        assert_eq!(reg.create(MapDef::array(4, 4), 1).unwrap(), 2);
        assert!(reg.remove(fd1).is_some() && reg.remove(2).is_some());
        assert!(reg.is_empty());
    }

    #[test]
    fn iter_hash_yields_entries() {
        let mut m = Map::new(MapDef::hash(4, 4, 8), 1).unwrap();
        m.update(&[1, 0, 0, 0], &[9, 0, 0, 0], 0).unwrap();
        m.update(&[2, 0, 0, 0], &[8, 0, 0, 0], 0).unwrap();
        let mut keys: Vec<u32> = m
            .iter_hash()
            .map(|(k, _)| u32::from_le_bytes([k[0], k[1], k[2], k[3]]))
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2]);
    }
}
