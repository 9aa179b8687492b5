//! Compiler pipeline benchmarks: lexing through image serialization for
//! each shipped driver (the toolchain a driver developer exercises).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use upnp_dsl::{compile_source, drivers};

fn bench_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("dsl_compiler");
    for (name, src) in [
        ("tmp36", drivers::TMP36),
        ("hih4030", drivers::HIH4030),
        ("id20la", drivers::ID20LA),
        ("bmp180", drivers::BMP180),
    ] {
        g.bench_with_input(BenchmarkId::new("compile", name), &src, |b, src| {
            b.iter(|| black_box(compile_source(src, 1).expect("compiles")))
        });
    }
    // Round-trip through the wire format.
    let image = compile_source(drivers::BMP180, 1).unwrap();
    let bytes = image.to_bytes();
    g.bench_function("image_decode_bmp180", |b| {
        b.iter(|| black_box(upnp_dsl::image::DriverImage::from_bytes(&bytes).unwrap()))
    });
    // What every Thing runs on each image it receives before install.
    for (name, src) in drivers::ALL {
        let bytes = compile_source(src, 1).expect("compiles").to_bytes();
        g.bench_function(format!("decode_verify_{name}"), |b| {
            b.iter(|| {
                let image = upnp_dsl::image::DriverImage::from_bytes(black_box(&bytes))
                    .expect("shipped image decodes");
                black_box(upnp_dsl::verify(&image)).expect("shipped image verifies")
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_compile);
criterion_main!(benches);
