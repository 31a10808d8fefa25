//! Fixture: lock-discipline rule 4 — block images changed outside the
//! applier, through a typed binding, through an untyped closure parameter
//! and by a detached row.

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
