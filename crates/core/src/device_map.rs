//! A small map keyed by device-type id, for the per-Thing tables.
//!
//! A Thing serves a handful of peripherals at most (usually one), so its
//! per-peripheral state fits a vector sorted by id: a lookup scans a few
//! entries, the storage grows one entry at a time, and an emptied map
//! holds no allocation. A `HashMap` with one entry allocates room for
//! four, plus its control bytes.

/// A map from device-type id (`u32`) to `V`, iterating in ascending id
/// order.
#[derive(Debug, Clone)]
pub struct DeviceMap<V> {
    entries: Vec<(u32, V)>,
}

impl<V> Default for DeviceMap<V> {
    fn default() -> Self {
        DeviceMap {
            entries: Vec::new(),
        }
    }
}

impl<V> DeviceMap<V> {
    /// An empty map (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, device_id: u32) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&device_id, |&(id, _)| id)
    }

    /// The value for `device_id`, if any.
    pub fn get(&self, device_id: u32) -> Option<&V> {
        let i = self.find(device_id).ok()?;
        Some(&self.entries[i].1)
    }

    /// The value for `device_id`, mutably, if any.
    pub fn get_mut(&mut self, device_id: u32) -> Option<&mut V> {
        let i = self.find(device_id).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// True if `device_id` has a value.
    pub fn contains(&self, device_id: u32) -> bool {
        self.find(device_id).is_ok()
    }

    /// The value for `device_id`, inserting `V::default()` first if absent.
    pub fn get_or_default(&mut self, device_id: u32) -> &mut V
    where
        V: Default,
    {
        let i = match self.find(device_id) {
            Ok(i) => i,
            Err(i) => {
                self.insert_at(i, device_id, V::default());
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Sets the value for `device_id`, returning the one it replaces.
    pub fn insert(&mut self, device_id: u32, value: V) -> Option<V> {
        match self.find(device_id) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.insert_at(i, device_id, value);
                None
            }
        }
    }

    fn insert_at(&mut self, i: usize, device_id: u32, value: V) {
        // One entry at a time: `insert` alone would reserve four.
        self.entries.reserve_exact(1);
        self.entries.insert(i, (device_id, value));
    }

    /// Removes and returns the value for `device_id`. The last removal
    /// releases the storage.
    pub fn remove(&mut self, device_id: u32) -> Option<V> {
        let i = self.find(device_id).ok()?;
        let (_, value) = self.entries.remove(i);
        if self.entries.is_empty() {
            self.entries = Vec::new();
        }
        Some(value)
    }

    /// `(device id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        self.entries.iter().map(|(id, v)| (*id, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_in_ascending_id_order() {
        let mut m = DeviceMap::new();
        for id in [30, 10, 20] {
            assert_eq!(m.insert(id, id * 2), None);
        }
        assert_eq!(m.insert(20, 0), Some(40));
        let pairs: Vec<(u32, u32)> = m.iter().map(|(id, &v)| (id, v)).collect();
        assert_eq!(pairs, vec![(10, 20), (20, 0), (30, 60)]);
    }

    #[test]
    fn get_or_default_inserts_once() {
        let mut m: DeviceMap<Vec<u8>> = DeviceMap::new();
        m.get_or_default(7).push(1);
        m.get_or_default(7).push(2);
        assert_eq!(m.get(7), Some(&vec![1, 2]));
        assert!(m.contains(7));
        assert!(!m.contains(8));
        assert_eq!(m.get_mut(8), None);
    }

    #[test]
    fn storage_grows_by_one_and_is_released_when_empty() {
        let mut m = DeviceMap::new();
        assert_eq!(m.entries.capacity(), 0);
        m.insert(1, 1u8);
        assert_eq!(m.entries.capacity(), 1);
        m.insert(2, 2);
        assert_eq!(m.entries.capacity(), 2);
        assert_eq!(m.remove(1), Some(1));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.entries.capacity(), 2, "a non-empty map keeps its room");
        m.remove(2);
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.entries.capacity(), 0);
    }
}
