//! Property-based tests of the simulated filesystem.

use bytes::Bytes;
use proptest::prelude::*;
use recobench_sim::{DiskProfile, SimTime};
use recobench_vfs::{DiskId, FileKind, SimFs};

fn fs() -> SimFs {
    SimFs::new(vec![DiskProfile::server_2000(); 2])
}

proptest! {
    #[test]
    fn block_writes_read_back_last_value(
        writes in proptest::collection::vec((0u64..16, 0u8..255), 1..60)
    ) {
        let mut fs = fs();
        let f = fs.create_block_file("/f", DiskId(0), FileKind::Data, 64, 16).unwrap();
        let mut model = std::collections::HashMap::new();
        for (block, fill) in writes {
            fs.write_block(f, block, Bytes::from(vec![fill; 64]), SimTime::ZERO).unwrap();
            model.insert(block, fill);
        }
        for (block, fill) in model {
            let (_, img) = fs.read_block(f, block, SimTime::ZERO).unwrap();
            prop_assert!(img.iter().all(|&b| b == fill));
        }
    }

    #[test]
    fn append_preserves_order_and_length(
        segments in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..30),
        pads in proptest::collection::vec(0u64..512, 0..30),
    ) {
        let mut fs = fs();
        let f = fs.create_append_file("/log", DiskId(0), FileKind::Redo).unwrap();
        let mut expected_len = 0u64;
        for (i, seg) in segments.iter().enumerate() {
            let pad = pads.get(i).copied().unwrap_or(0);
            fs.append_padded(f, Bytes::from(seg.clone()), pad, SimTime::ZERO).unwrap();
            expected_len += seg.len() as u64 + pad;
        }
        prop_assert_eq!(fs.meta(f).unwrap().size_bytes, expected_len);
        let (_, got) = fs.read_from(f, 0, SimTime::ZERO).unwrap();
        let got_flat: Vec<u8> = got.iter().flat_map(|b| b.iter().copied()).collect();
        let want_flat: Vec<u8> = segments.iter().flatten().copied().collect();
        prop_assert_eq!(got_flat, want_flat);
    }

    #[test]
    fn copy_then_restore_is_identity(
        blocks in proptest::collection::vec((0u64..8, any::<u8>()), 1..20)
    ) {
        let mut fs = fs();
        let f = fs.create_block_file("/orig", DiskId(0), FileKind::Data, 32, 8).unwrap();
        for (b, v) in &blocks {
            fs.write_block(f, *b, Bytes::from(vec![*v; 32]), SimTime::ZERO).unwrap();
        }
        let snapshot = fs.peek_blocks_written(f).unwrap();
        let (_, bak) = fs.copy_file(f, "/bak", DiskId(1), FileKind::Backup, SimTime::ZERO).unwrap();
        // Scribble over the original, then restore.
        for (b, _) in &blocks {
            fs.write_block(f, *b, Bytes::from(vec![0xEE; 32]), SimTime::ZERO).unwrap();
        }
        fs.restore_into(bak, f, SimTime::ZERO).unwrap();
        prop_assert_eq!(fs.peek_blocks_written(f).unwrap(), snapshot);
    }

    #[test]
    fn delete_then_recreate_path_is_fresh(
        name in "[a-z]{1,12}"
    ) {
        let mut fs = fs();
        let path = format!("/{name}");
        let f1 = fs.create_append_file(&path, DiskId(0), FileKind::Archive).unwrap();
        fs.append(f1, Bytes::from_static(b"old"), SimTime::ZERO).unwrap();
        fs.delete_path(&path).unwrap();
        let f2 = fs.create_append_file(&path, DiskId(0), FileKind::Archive).unwrap();
        prop_assert_ne!(f1, f2);
        prop_assert_eq!(fs.meta(f2).unwrap().size_bytes, 0);
        // The old handle stays inspectable but unreadable.
        prop_assert!(fs.meta(f1).unwrap().deleted);
        prop_assert!(fs.read_from(f1, 0, SimTime::ZERO).is_err());
    }

    #[test]
    fn io_time_is_monotone_in_bytes(
        small in 0u64..10_000,
        extra in 1u64..10_000_000,
    ) {
        let mut fs1 = fs();
        let mut fs2 = fs();
        let a = fs1.create_append_file("/a", DiskId(0), FileKind::Redo).unwrap();
        let b = fs2.create_append_file("/b", DiskId(0), FileKind::Redo).unwrap();
        let (t_small, _) = fs1.append_padded(a, Bytes::new(), small, SimTime::ZERO).unwrap();
        let (t_big, _) = fs2.append_padded(b, Bytes::new(), small + extra, SimTime::ZERO).unwrap();
        prop_assert!(t_big >= t_small, "more bytes can never finish sooner");
    }
}
