use dpta_dp::{AccountId, Ledger, SeededNoise};

pub fn charged_draw(seed: u64, ledger: &mut Ledger, at: AccountId, eps: f64) -> SeededNoise {
    let noise = SeededNoise::new(seed);
    ledger.charge_at(at, eps);
    noise
}
