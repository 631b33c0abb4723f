"""The T1 scenario: digital cash end to end, plus the paper's table.

Running ``run_scenario("digital-cash")`` executes withdrawals, purchases, and
deposits over the simulated network and returns everything a test or
benchmark needs: the world (hence the ledger), the analyzer, and the
paper's expected knowledge table for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.analysis import DecouplingAnalyzer
from repro.core.values import Subject
from repro.scenario import (
    Param,
    ScenarioProgram,
    ScenarioRun,
    ScenarioSpec,
    register,
)

from .cash import Bank, Buyer, Seller

__all__ = ["DigitalCashRun", "PAPER_TABLE_T1"]

#: The paper's section 3.1.1 table, exactly as printed.
PAPER_TABLE_T1: Dict[str, str] = {
    "Buyer": "(▲, ●)",
    "Signer (Bank)": "(▲, ⊙)",
    "Verifier (Bank)": "(△, ⊙/●)",
    "Seller": "(△, ●)",
}


@dataclass
class DigitalCashRun(ScenarioRun):
    """Everything produced by one digital-cash scenario run."""

    bank: Bank = None  # type: ignore[assignment]
    buyer: Buyer = None  # type: ignore[assignment]
    seller: Seller = None  # type: ignore[assignment]
    coins_spent: int = 0

    table_title = "T1: blind-signature digital cash"


class DigitalCashProgram(ScenarioProgram):
    """Withdraw and spend coins over the simulated network.

    ``blind_withdrawals=False`` runs the ablation: identical protocol
    minus the blinding, so the bank's two roles share a serial and can
    re-couple (the A-series benchmarks quantify this).
    """

    def build(self) -> None:
        buyer_entity = self.world.entity("Buyer", "buyer-device", trusted_by_user=True)
        signer_entity = self.world.entity("Signer (Bank)", "bank")
        verifier_entity = self.world.entity("Verifier (Bank)", "bank")
        seller_entity = self.world.entity("Seller", "seller")

        self.bank = Bank(
            self.network,
            signer_entity,
            verifier_entity,
            key_bits=self.param("key_bits"),
            rng=self.rng,
        )
        self.buyer = Buyer(
            self.network, buyer_entity, Subject("alice"), "alice-account-7", rng=self.rng
        )
        self.seller = Seller(self.network, seller_entity, self.bank)

    def drive(self) -> None:
        self.spent = 0
        for index in range(self.param("coins")):
            coin = self.buyer.withdraw(
                self.bank, blind_withdrawal=self.param("blind_withdrawals")
            )
            receipt = self.buyer.pay(self.seller, coin, f"book #{index}")
            if receipt.accepted:
                self.spent += 1

    def analyze(self) -> DigitalCashRun:
        return DigitalCashRun(
            world=self.world,
            network=self.network,
            analyzer=DecouplingAnalyzer(self.world),
            bank=self.bank,
            buyer=self.buyer,
            seller=self.seller,
            coins_spent=self.spent,
        )


register(
    ScenarioSpec(
        id="digital-cash",
        title="Blind-signature digital cash (3.1.1)",
        program=DigitalCashProgram,
        params=(
            Param("coins", 3, "coins withdrawn and spent"),
            Param("seed", 20221114, "per-run RNG seed (None: system entropy)"),
            Param("key_bits", 512, "RSA modulus size for the bank keypair"),
            Param("blind_withdrawals", True, "False runs the unblinded ablation"),
        ),
        expected=PAPER_TABLE_T1,
        entities=("Buyer", "Signer (Bank)", "Verifier (Bank)", "Seller"),
        experiment_id="T1",
        order=10.0,
    )
)
