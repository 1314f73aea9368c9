//! Conway's Game of Life on a torus, run through the cache-oblivious TRAP engine, with a
//! textual rendering of a glider travelling across the board.
//!
//! Run with `cargo run --release --example game_of_life`.

use pochoir::prelude::*;
use pochoir::stencils::life;

fn render(board: &[u8], n: usize) -> String {
    let mut out = String::new();
    for x in 0..n {
        for y in 0..n {
            out.push(if board[x * n + y] == 1 { '#' } else { '.' });
        }
        out.push('\n');
    }
    out
}

fn main() {
    let n = 20usize;
    let generations = 40i64;

    let spec = StencilSpec::new(life::shape());
    let mut board = life::build_glider([n, n]);
    println!("generation 0:\n{}", render(&board.snapshot(0), n));

    // Run the whole evolution with the hyperspace-cut trapezoidal decomposition on the
    // global work-stealing runtime.
    run(
        &mut board,
        &spec,
        &life::LifeKernel,
        0,
        generations,
        &ExecutionPlan::trap(),
        Runtime::global(),
    );

    let final_board = board.snapshot(generations);
    println!("generation {generations}:\n{}", render(&final_board, n));

    let alive: usize = final_board.iter().map(|&c| c as usize).sum();
    println!("a glider has 5 live cells at every generation; counted {alive}");
    assert_eq!(alive, 5);

    // The default plan (`SimdPolicy::Auto`) runs Life's rows on its AVX2 body when
    // the host has AVX2; `ExecutionPlan::with_simd(SimdPolicy::Scalar)` keeps them on
    // the scalar loop — the results are bitwise-identical either way (see
    // docs/performance.md).
    let name = |isa: Option<pochoir::core::simd::SimdIsa>| isa.map_or("scalar", |i| i.name());
    println!(
        "detected SIMD ISA: {}; row kernels dispatched to: {}",
        name(pochoir::core::simd::detected()),
        name(pochoir::core::simd::active())
    );
}
