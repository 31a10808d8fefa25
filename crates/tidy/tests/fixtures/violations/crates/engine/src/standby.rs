//! Fixture: lock-discipline rule 4 — block images changed outside the applier
//! (a typed binding, an untyped closure parameter, a detached row) and indexes
//! changed outside it (an untyped loop binding, an element of an untyped set).

pub struct BlockImage;

impl BlockImage {
    pub fn put(&mut self, _slot: u16) {}

    pub fn remove(&mut self, _slot: u16) {}

    pub fn detach(&mut self, _slot: u16) {}
}

pub fn redo_here(image: &mut BlockImage) {
    image.put(3);
}

pub fn undo_here(with_block: impl Fn(&dyn Fn(&mut BlockImage))) {
    with_block(&|img| img.remove(3));
}

pub fn end_pass_here(image: &mut BlockImage) {
    image.detach(3);
}

pub struct Index;

impl Index {
    pub fn insert(&mut self, _slot: u16) {}
}

pub fn unwind_here(indexes: &mut [Index]) {
    for ix in indexes {
        ix.insert(3);
    }
}

pub fn undo_insert_here(indexes: &mut [Index]) {
    for i in 0..indexes.len() {
        indexes[i].insert(3);
    }
}
