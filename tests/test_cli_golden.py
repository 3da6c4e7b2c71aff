"""Byte identity of the CLI: the stdout digest and exit code of fixed commands.

Each command runs through ``cli.main`` in process.  The sha256 of its stdout
and its exit code were recorded before the exact LP assembly moved from
Fraction sums to integer popcounts, so a change to any payload, table
rendering or exit code fails here.  The list covers `supports` (generic
n = 2..6, inner n = 2..12), `haar-lp` (generic n = 3..6 at several β in both
bound modes, inner n = 3..10, custom directions, a table render, capacity and
invalid-input cases), `report` in both formats and `roots`.  The `bound` and
`spectrum` entries (fractional, tied and zero directions, with and without
--K) and the two thm14 runs on fractional custom directions were recorded
before the entropy bounds moved from one Fraction per root to integers.
"""

import contextlib
import hashlib
import io

import pytest

from haargap import cli

GOLDEN = {
    "supports --n 2": ("5ab4ff8ed33fa4f959ee75ac38aaffeb12e1f9deb5ac8b8b6164e943f0132718", 0),
    "supports --n 3": ("61f97ddd6719ced7e2f9da93839bfb160ccd634106d0b82825bd0b4ab248bc94", 0),
    "supports --n 4": ("06e30afe49e8bfa505cd8890dd675bd21adaa4b848bea6e28030c50ed03de817", 0),
    "supports --n 5": ("8f6f14df4fc4842843c0b9b1258797cc3550bd75e79dbdc6e21e7fe59f85d741", 0),
    "supports --n 6": ("a9a94a3c6d83e049d63df5850c0af4ded846a4d442edca6d7b66fb7885289c3f", 0),
    "supports --n 2 --lattice inner": ("f1147d215cd7f79ea8fc6a6811f7e40372ecde4d5a808427adafd4fb056b9b4c", 0),
    "supports --n 3 --lattice inner": ("ea69a36756c5c2fa4fed7ba0ca642401417376f6cc47799869cedfbc20a1924e", 0),
    "supports --n 4 --lattice inner": ("fa74afc3f9ec4cb8bf7896fdabbdba5d5619ecff5d55c20ad2c5aac79584099d", 0),
    "supports --n 5 --lattice inner": ("d409af1c24f62c1c1d2425bdb6e793714307bd093128ebd0a828e0fd39aeb55d", 0),
    "supports --n 6 --lattice inner": ("cb2ee2a589e266fe747e46326f3ac9fdcad299c900478f3152f82c5b7e4e4aa0", 0),
    "supports --n 7 --lattice inner": ("64d352d7508b72d8fe3d7bcb396e872a39467d21fe0b5eb063321d0df7036eac", 0),
    "supports --n 8 --lattice inner": ("ad8c788459e59b38fb28e9871df8dcd0351947f4dedcc16796c7c8c8c475e6a0", 0),
    "supports --n 9 --lattice inner": ("055727566f9c2e6e44fcb2be6a2f3243fb6b4e63d6c0d3f065ae3c462f240387", 0),
    "supports --n 10 --lattice inner": ("b524271399f18fabfecd9a143dfad77f2818d0d0762f715da2c74c6172ba8f1d", 0),
    "supports --n 11 --lattice inner": ("8aa9e7fa4d92a4b3cad3e1ad595b56c082f2a0ac24ffe5cfb88f67655b9aeea3", 0),
    "supports --n 12 --lattice inner": ("5f5e760056b48491d7f252522565713b6b9a04d34c12f122a3dbcd51c253d491", 0),
    "supports --n 4 --format table": ("d843bd977bdd0fa6a93d3006d2e6ee8e39e42ed82bb302ede0d03c3601681328", 0),
    "supports --n 10 --lattice inner --format table": ("14abadea4867056b84ee6ba32082de27aba50434f2430bbd422d6b8ae445b041", 0),
    "supports --n 7": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "supports --n 13 --lattice inner": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "haar-lp --n 3 --beta 0": ("edb7d4c6527d7f0a82768827d978c4f92071446278991ed6894ac7ae9d11a8c0", 0),
    "haar-lp --n 3 --beta 1/3": ("5b6285ff1bcce88c2930ff432d34ab15a2d6915fd03066f167d5d19491d414d2", 0),
    "haar-lp --n 3 --beta 1/2": ("6f80cea97f57ea16cb6c2ffb1cd0599ae5f897fc95c02656d68c9c42f3bd1b6b", 0),
    "haar-lp --n 3 --beta 2/3": ("4a20ad46763830379b9a27857d66e435b25a3af40a47b087252c9b0c943acd26", 0),
    "haar-lp --n 3 --beta 1": ("14341de18c71ea4c422d25b2881ea1808c324ff8e431be03b415909e6e4c25a8", 0),
    "haar-lp --n 3 --beta 1/2 --bound-mode thm14": ("767dce28eccc48837a9b659825bd2b9848307d781eb4541c317345eba688f7ef", 0),
    "haar-lp --n 3 --beta 1 --bound-mode thm14": ("c963f1c6cc797dcd5dac88400cba45fc283e22835e9120b303e894e3ee560526", 0),
    "haar-lp --n 4 --beta 0": ("692f5c8ebacf931eafeb3f978234b71244de0de9636266c7a7605a201546bc56", 0),
    "haar-lp --n 4 --beta 1/3": ("16b15b6df0d6c13803396c3a4e31a0ab3609a31d1b60be7f5370923a6f50ce98", 0),
    "haar-lp --n 4 --beta 1/2": ("2d57de6ecc8ad7ef59d5ab8ba689690b8bc52c902bab9c284608ecd34671a033", 0),
    "haar-lp --n 4 --beta 11/20": ("9bd5f60c612bf4851256641be9553ad2cddeff38c40483903759de02e9ecb7d5", 0),
    "haar-lp --n 4 --beta 2/3": ("34227343aaf1785727c44ded3cd101ccd7c1117a1b23b94595f2973d2054cb73", 0),
    "haar-lp --n 4 --beta 1": ("df3040e443eadf514e30057c5b7c14c5e55ba637f23a4e7302d5cbeabe3299f2", 0),
    "haar-lp --n 4 --beta 1/2 --bound-mode thm14": ("930f738d2be87ba23951f386ebe7f6e696d43340604639e577f62fe474c389ce", 0),
    "haar-lp --n 4 --beta 1 --bound-mode thm14": ("10e311beb6b0e1b17dd6126ec1d39d56c4745883050cb4837f8317314eedb33a", 0),
    "haar-lp --n 5 --beta 0": ("8addb929e7b5163bb7185f73d1d6152a748268e49c8457830cc4d58c8e318359", 0),
    "haar-lp --n 5 --beta 1/3": ("06d6ee2cb1bb4c723d78fb74aaab7cb7a0320517b4b90e5789e1e279ff5ffccc", 0),
    "haar-lp --n 5 --beta 1/2": ("e5c24963972d4463cb5fac4181bac69054c1f0b0ecc28f3b2933f28741ab00c2", 0),
    "haar-lp --n 5 --beta 2/3": ("fcbe3309e83acf28d9d6ccae898372dfadc84f678cf7e9767277dc09b9e4068f", 0),
    "haar-lp --n 5 --beta 1": ("bdb81d8515b825840af2c86989cf17305e5cbeb64459d3e23fbb9b9977884cc3", 0),
    "haar-lp --n 5 --beta 1/2 --bound-mode thm14": ("678d606a93fb2fc798129120373b172648f2e9dbd5b0e2dc0a47ee43333b40b3", 0),
    "haar-lp --n 5 --beta 1 --bound-mode thm14": ("0118b853eeb8dfef2f346fe77a50a40ddb61b00694a25eaa418f1076c3168157", 0),
    "haar-lp --n 6 --beta 0": ("fa57ec0c5d18fc79103e4bc573ecebbb01c905ad645f7a0f2a5d9df5d41b543a", 0),
    "haar-lp --n 6 --beta 1/2": ("585cefbf5b109994c3ef168b9dd5c89a3ecc19d4275e3423577ee80a7e9c7d76", 0),
    "haar-lp --n 3 --lattice inner --beta 1/2": ("b4125d071876ebfe74f1507c2f5ad391a451ccdf816e006778b68bd73f48f404", 0),
    "haar-lp --n 4 --lattice inner --beta 1/2": ("96a13f8d72b54013ca3ebd18b5cde9416362348f0ab3af9599d40211e98acc84", 0),
    "haar-lp --n 5 --lattice inner --beta 1/2": ("49889ef84e9143c15e06420429928d74ca756a3c742a35acbd9547c1068a70c9", 0),
    "haar-lp --n 6 --lattice inner --beta 1/2": ("a48f89a49c8dbf8b9acfb56200304a62eeb6f050bb7dad9fd0f9ceb69a61d859", 0),
    "haar-lp --n 7 --lattice inner --beta 1/2": ("a6c97d4b9f33e518b482370ef84f52ede495b1f2c538115e8a38fa1b5d625bac", 0),
    "haar-lp --n 8 --lattice inner --beta 1/2": ("0bf31f7d15d17f37feb2550c5def8d85b68ccb80c7464e9abfe5a15fa562c281", 0),
    "haar-lp --n 9 --lattice inner --beta 1/2": ("971a426a20947d1fa439e9c1ff0f51b0c4efc81c959e1db4da524984fff52358", 0),
    "haar-lp --n 10 --lattice inner --beta 1/2": ("25466ace6ce318fc736f791409ad676650dff3e82ec4ad7686b1476631329820", 0),
    "haar-lp --n 6 --lattice inner --beta 1/3": ("bee09844fb94ee91e447cba23bdc2d5b50907992c266393b8fd3c82f41d993fc", 0),
    "haar-lp --n 8 --lattice inner --beta 5/6": ("e0d39f4abb524f822a85808c4bbe794dffa4cb8828fa3ccc002e465d2d060274", 0),
    "haar-lp --n 6 --lattice inner --beta 1/2 --bound-mode thm14": ("ec87ece1f10060ea2f52d9a10cc31e7f8b742764a4633c983a501d285f364c65", 0),
    "haar-lp --n 4 --beta 1/2 --direction=3,-1,-1,-1 --direction=1,1,-1,-1 --direction=-1/2,3/2,-1/3,-2/3": ("c0d47bcac0e22e8399121d67d92c7611eccec8e85c159c64df37ed0aff19f22d", 0),
    "haar-lp --n 4 --beta 11/20 --format table": ("c01cfd94655b58b50a2a76692168a5764a10d71db5768f6fbfe51757d1a7cc47", 0),
    "haar-lp --n 7 --beta 1/2": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "haar-lp --n 13 --lattice inner --beta 1/2": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "haar-lp --n 4 --beta 3/2": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "report": ("5bf9a4875cbb652d3aa96ad1c5644831142c65b8c5c8f366615e10194ed18281", 0),
    "report --format table": ("76e8b70f508ad52ece5ef88395748fd63cddeae997b8ea5df88d133fa63703b0", 0),
    "roots --n 1": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "roots --n 3": ("02b2280c33e464e1b9b89578d671ca595f5db8f187b12fb3a6465accaf4bf991", 0),
    "roots --n 4 --format table": ("59d380c3de2c8fc930350f842602c76e0294457d49095ef2d854a5405567071f", 0),
    "roots --n 4 --direction=3,-1,-1,-1": ("f826471cad0099913901675d0f37d279ca5cb333f6b23d5862dbfadd8f4d0eb3", 0),
    "roots --n 10 --direction=9,7,5,3,1,-1,-3,-5,-7,-9": ("48a1d62205e83029af4e027002888f9d1778411c806c8f62a601d359395dcb6c", 0),
    "roots --n 65": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "bound --n 3 --direction=2,-1,-1": ("c616b8533e9bf2ef682f980ca481add48fd85afda24044e1ad91f9adbfad2e50", 0),
    "bound --n 4 --direction=1/2,-1/3,1/6,-1/3": ("78056c8f2653f5b35acefdc7fb1d86e3cd7c6a3a0901b890c5d0f50317b08afc", 0),
    "bound --n 4 --direction=1,1,-1,-1": ("25814d8b4001e8dae9b8c006f92512df52a904474ff05337a13a7e4d63c5c45e", 0),
    "bound --n 3 --direction=0,0,0": ("f58e7c661852fe9c06372d93f2a7948024d5fd8acb35f82922633de77902c3e3", 0),
    "bound --n 5 --direction=3/2,-1/4,-1/4,-1/2,-1/2 --K 2/3": ("8414c27e0b7d7f7b3abd7e55133e35f4a255ec4b8265cf0323fb92e03d6af3d7", 0),
    "bound --n 4 --direction=3,-1,-1,-1 --K 1/3": ("31a835ce1c1e6da2166676b7ec3c1088b40c34d3b390afea8b93e5ee5a897726", 0),
    "bound --n 6 --direction=5/7,5/7,1/3,-1/3,-5/7,-5/7 --K 7/4": ("48a0574ed1a17c4191a47dd4d455692668d2dd83c27e5a6366d6a7cbe3dee9dc", 0),
    "bound --n 3 --direction=0,0,0 --K 1": ("c86ac3b54d4b91dbc5efd8f1de2d0194e645fcf4bfd7729b50a317820e8cb05c", 0),
    "bound --n 4 --direction=1,1,-1,-1 --K 1/2 --format table": ("6503e143ec2e2ee6a4c491260aee2387e768ebf606b0875e3eb7b8d979d436ee", 0),
    "bound --n 4 --direction=1,-1,0": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "spectrum --n 3 --direction=2,-1,-1": ("d23076c9f36d6b2adc5b2d93ea51be4aa3dcd80aa0a8af6580473f0c512ec6e9", 0),
    "spectrum --n 4 --direction=1/2,-1/3,1/6,-1/3": ("0b7ee5880146928226fc4a6fac7e8ace1bbd44bf12267d01f49de2398de0cbc1", 0),
    "spectrum --n 4 --direction=1,1,-1,-1": ("9d00fb7b3bff8d74a7d352dac8d5d0e77193f7913e95fdfbd319f62100600fc0", 0),
    "spectrum --n 3 --direction=0,0,0": ("5fc2b90bfb290213c5b1c98fcb876819c7613bcfa018f461fd2c8554af9de798", 0),
    "spectrum --n 5 --direction=3/2,-1/4,-1/4,-1/2,-1/2 --K 2/3": ("23ecdd8085de29e5aa33c0de4f7f58d4449d9bc2ac58340a23e9d171549b683f", 0),
    "spectrum --n 6 --direction=5/7,5/7,1/3,-1/3,-5/7,-5/7 --K 7/4": ("5421d52517c08f2ca882b3c4eab47b4d4fd4462536f7a67af2df67b39c0719d2", 0),
    "spectrum --n 3 --direction=0,0,0 --K 1": ("98171dcad0823042c31a31b1e528ca1f9d8005bc26d9f60a40eaeccd1f3a1403", 0),
    "spectrum --n 4 --direction=1,1,-1,-1 --K 1/2 --format table": ("cdd28696dba9b4713c067a64d37f726757458d987365fdcaf9a0eb590cfe0a04", 0),
    "haar-lp --n 4 --beta 1/2 --bound-mode thm14 --direction=-1/2,3/2,-1/3,-2/3 --direction=5/7,-5/7,1/3,-1/3 --direction=1,1,-1,-1": ("30b4abbb0db456c1f53e42bb6ace95798b38d90f5f9d4eb5448dceaca6ef81b4", 0),
    "haar-lp --n 3 --beta 1/2 --bound-mode thm14 --direction=2/3,-1/3,-1/3 --direction=-1/3,2/3,-1/3 --direction=-1/3,-1/3,2/3 --direction=1/2,0,-1/2": ("eb3b346538b16009909ad2f2347e0db51c3fed0d484ccd4ca118664528cab1ad", 0),
}


def run_digest(command: str) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(command.split())
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


@pytest.mark.parametrize("command", list(GOLDEN))
def test_cli_output_is_byte_identical(command):
    assert run_digest(command) == GOLDEN[command]
