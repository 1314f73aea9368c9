//! Inputs are a function of the seed, and references come from the loops engine.

use pochoir_benchmark::inputs::{self, final_bytes, sizes, Grids, TenantApp};
use pochoir_benchmark::workloads;
use pochoir_stencils::traffic::digest_grid;

#[test]
fn the_same_seed_gives_the_same_requests_and_references() {
    assert_eq!(inputs::requests(11), inputs::requests(11));
    assert_eq!(
        workloads::references("serve-tenants", 11),
        workloads::references("serve-tenants", 11)
    );
    assert_eq!(
        workloads::references("wire-tenants", 11),
        workloads::references("serve-tenants", 11),
        "the wire workload checks against the very same references"
    );
}

#[test]
fn another_seed_gives_other_requests_and_references() {
    assert_ne!(inputs::requests(11), inputs::requests(12));
    let (a, b) = (
        workloads::references("serve-tenants", 11),
        workloads::references("serve-tenants", 12),
    );
    assert_eq!(a.len(), b.len());
    assert!(a.iter().zip(b.iter()).all(|(x, y)| x.digest != y.digest));
}

#[test]
fn the_request_list_has_the_declared_shape() {
    let requests = inputs::requests(5);
    assert_eq!(requests.len(), 2 * sizes::ARRIVALS);
    for app in [TenantApp::Heat, TenantApp::Life] {
        assert_eq!(
            requests.iter().filter(|r| r.app == app).count(),
            sizes::ARRIVALS
        );
    }
    assert!(requests.windows(2).all(|w| w[0].epoch <= w[1].epoch));
    assert!(requests.iter().all(|r| r.tenant < sizes::TENANTS));
    assert!(requests.iter().any(|r| r.deadline.is_some()));
    assert!(requests.iter().any(|r| r.weight > 1));
    // Both connections of wire-tenants must cycle within their own half.
    assert_eq!(requests.len() % 2, 0);
}

#[test]
fn a_reference_is_the_loops_engine_on_a_copy() {
    let grids = Grids::tenants(9);
    let refs = grids.references(sizes::TENANT_HEAT_STEPS, sizes::TENANT_LIFE_STEPS);
    assert_eq!(refs.len(), grids.heat.len() + grids.life.len());
    // Heat first, then life; recompute one of each by hand.
    let mut heat = grids.heat[3].clone();
    inputs::run_loops(
        &mut heat,
        &inputs::heat_spec(),
        &pochoir_stencils::heat::HeatKernel::<2>::default(),
        0,
        sizes::TENANT_HEAT_STEPS,
    );
    assert_eq!(refs[3].digest, digest_grid(&heat, sizes::TENANT_HEAT_STEPS));
    assert_eq!(refs[3].bytes, final_bytes(&heat, sizes::TENANT_HEAT_STEPS));
    assert_eq!(
        refs[3].bytes.len(),
        2 * sizes::TENANT[0] * sizes::TENANT[1] * 8
    );
    let life_ref = &refs[grids.heat.len() + 3];
    assert_eq!(
        life_ref.bytes.len(),
        2 * sizes::TENANT[0] * sizes::TENANT[1]
    );
    assert_ne!(
        digest_grid(&grids.life[3], 0),
        life_ref.digest,
        "the soup evolves"
    );
}

#[test]
fn seeded_grids_differ_by_seed_and_tenant() {
    let a = inputs::heat_grid(1, [32, 32], 0).snapshot(0);
    assert_eq!(a, inputs::heat_grid(1, [32, 32], 0).snapshot(0));
    assert_ne!(a, inputs::heat_grid(2, [32, 32], 0).snapshot(0));
    assert_ne!(a, inputs::heat_grid(1, [32, 32], 1).snapshot(0));
    assert_ne!(
        inputs::life_grid(1, [32, 32], 0).snapshot(0),
        inputs::life_grid(2, [32, 32], 0).snapshot(0)
    );
    assert_ne!(
        inputs::wave_grid(1, [8, 8, 8]).snapshot(1),
        inputs::wave_grid(2, [8, 8, 8]).snapshot(1)
    );
}
