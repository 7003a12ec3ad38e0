//! INV01 fixture: a storage field of the run arena made `pub`.

pub struct RunArena<T> {
    data: Vec<T>,
    pub offsets: Vec<u32>,
    pub base: u64,
}
