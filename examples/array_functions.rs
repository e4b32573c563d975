//! The OLAP Array ADT's function repertoire (§3.5): Read/Write, sum of
//! a subset, slicing — plus a look inside the storage layer
//! (chunk-offset compression, IndexToIndex arrays, I/O accounting).
//!
//! ```sh
//! cargo run --example array_functions
//! ```

use std::sync::Arc;

use molap::array::{ArrayBuilder, ChunkFormat, Shape};
use molap::storage::{BufferPool, MemDisk, PAGE_SIZE};

fn main() {
    let pool = Arc::new(BufferPool::with_bytes(Arc::new(MemDisk::new()), 16 << 20));

    // A 12x12x12 array in 6x6x6 chunks (8 chunks), ~10% dense:
    // cell (x,y,z) valid iff (x+y+z) % 10 == 0, value = x*100+y*10+z.
    let shape = Shape::new(vec![12, 12, 12], vec![6, 6, 6]).unwrap();
    let mut builder = ArrayBuilder::new(shape, 1, ChunkFormat::ChunkOffset);
    for x in 0..12u32 {
        for y in 0..12u32 {
            for z in 0..12u32 {
                if (x + y + z) % 10 == 0 {
                    builder
                        .add(&[x, y, z], &[(x * 100 + y * 10 + z) as i64])
                        .unwrap();
                }
            }
        }
    }
    let mut array = builder.build(pool.clone()).unwrap();

    println!(
        "array 12x12x12 in {} chunks of {} cells; {} valid cells ({:.1}% dense)",
        array.shape().num_chunks(),
        array.shape().chunk_cells(),
        array.valid_cells(),
        array.density() * 100.0
    );
    println!(
        "chunk-offset compressed: {} bytes logical, {} pages on disk\n",
        array.total_bytes(),
        array.total_pages()
    );

    // --- Read (§3.5) --------------------------------------------------
    println!("Read:");
    println!(
        "  a[1,4,5]  = {:?}  (1+4+5 = 10, valid)",
        array.get(&[1, 4, 5]).unwrap()
    );
    println!(
        "  a[1,4,6]  = {:?}  (invalid cell)",
        array.get(&[1, 4, 6]).unwrap()
    );

    // --- Write (§3.5) -------------------------------------------------
    array.set(&[1, 4, 6], &[9999]).unwrap();
    println!(
        "Write: a[1,4,6] <- 9999, now {:?}",
        array.get(&[1, 4, 6]).unwrap()
    );
    array.set(&[1, 4, 6], &[1]).unwrap();
    println!(
        "       a[1,4,6] <- 1 (overwrite), now {:?}\n",
        array.get(&[1, 4, 6]).unwrap()
    );

    // --- Sum of a subset (§3.5) ----------------------------------------
    // Chunks disjoint from the box are never read: watch the I/O.
    pool.clear().unwrap();
    let before = pool.stats().snapshot();
    let corner = array.sum_region(&[0, 0, 0], &[5, 5, 5]).unwrap();
    let io = pool.stats().snapshot().since(&before);
    println!(
        "sum_region([0,0,0]..=[5,5,5]) = {:?} — {} physical reads (1 of 8 chunks)",
        corner, io.physical_reads
    );
    let all = array.sum_region(&[0, 0, 0], &[11, 11, 11]).unwrap();
    println!("sum_region(whole array)      = {all:?}\n");

    // --- Slice (§3.5) ---------------------------------------------------
    let slice = array.slice(&[3, 3, 3], &[8, 8, 8], pool.clone()).unwrap();
    println!(
        "slice([3,3,3]..=[8,8,8]): {}x{}x{} array with {} valid cells",
        slice.shape().dims()[0],
        slice.shape().dims()[1],
        slice.shape().dims()[2],
        slice.valid_cells()
    );
    // Slice coordinates are rebased: slice[0,0,0] == array[3,3,3].
    assert_eq!(
        slice.get(&[0, 0, 0]).unwrap(),
        array.get(&[3, 3, 3]).unwrap()
    );
    println!(
        "  slice[0,0,0] == array[3,3,3] == {:?}\n",
        slice.get(&[0, 0, 0]).unwrap()
    );

    // --- Compression formats side by side ------------------------------
    println!("same data in each chunk format:");
    for format in ChunkFormat::ALL {
        let shape = Shape::new(vec![12, 12, 12], vec![6, 6, 6]).unwrap();
        let mut b = ArrayBuilder::new(shape, 1, format);
        for x in 0..12u32 {
            for y in 0..12u32 {
                for z in 0..12u32 {
                    if (x + y + z) % 10 == 0 {
                        b.add(&[x, y, z], &[(x * 100 + y * 10 + z) as i64]).unwrap();
                    }
                }
            }
        }
        let a = b.build(pool.clone()).unwrap();
        println!(
            "  {:<12} {:>8} bytes logical, {:>3} pages ({} KB on disk)",
            format!("{format:?}"),
            a.total_bytes(),
            a.total_pages(),
            a.total_pages() * PAGE_SIZE as u64 / 1024
        );
    }
}
